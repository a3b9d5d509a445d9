package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around its
// own call sites. Spans of one op share Op; setup spans have Op -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since process start
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out once, at exit. A nil
// *spanLog records nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its ID (-1 on a nil log).
func (l *spanLog) add(name string, op, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(procStart)), End: int64(end.Sub(procStart)),
	})
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (l *spanLog) snapshot() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// write stores the spans as JSON in dir/name.
func (l *spanLog) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(l.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), blob, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	return self
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}
