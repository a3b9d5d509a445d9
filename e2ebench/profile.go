package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// cpuLayers are the layers sampled CPU time is grouped into, in report
// order. "payload" is the runtime's memclr/memmove (message bytes being
// zeroed and copied), "gc" the collector, "bench" this program's own code
// (including the service-mix HTTP client), "runtime" stacks holding only the
// Go scheduler, and "other" everything else outside any smpigo frame.
var cpuLayers = []string{
	"payload", "gc", "lmm", "actionheap", "surf", "simix", "smpi", "platform",
	"trace", "replay", "experiments", "campaign", "service", "bench", "runtime", "other",
}

// pkgLayer maps a Go package path to its layer. smpigo packages missing
// here (core, obs, ...) are shared helpers and land in "other".
var pkgLayer = map[string]string{
	"smpigo/internal/lmm":             "lmm",
	"smpigo/internal/surf/actionheap": "actionheap",
	"smpigo/internal/surf":            "surf",
	"smpigo/internal/simix":           "simix",
	"smpigo/internal/smpi":            "smpi",
	"smpigo/internal/platform":        "platform",
	"smpigo/internal/topology":        "platform",
	"smpigo/internal/placement":       "platform",
	"smpigo/internal/trace":           "trace",
	"smpigo/internal/replay":          "replay",
	"smpigo/internal/experiments":     "experiments",
	"smpigo/internal/skampi":          "experiments",
	"smpigo/internal/calibrate":       "experiments",
	"smpigo/internal/campaign":        "campaign",
	"smpigo/internal/service":         "service",
	"main":                            "bench",
}

// gcFuncs are runtime functions that belong to the collector wherever they
// appear in a stack (background workers, mutator assists, sweeping).
var gcFuncs = map[string]bool{
	"runtime.bgsweep":           true,
	"runtime.bgscavenge":        true,
	"runtime.sweepone":          true,
	"runtime.deductSweepCredit": true,
	"runtime.markroot":          true,
	"runtime.scanobject":        true,
}

// layerOf attributes one sampled stack (leaf first) to a layer: payload
// copies first, then collector work anywhere in the stack, then the first
// frame inside smpigo (or this program), so runtime and standard-library
// helpers — channel hand-offs, sorting, allocation — count toward the layer
// that called them.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	switch stack[0] {
	case "runtime.memclrNoHeapPointers", "runtime.memclrNoHeapPointersChunked", "runtime.memmove":
		return "payload"
	}
	for _, fn := range stack {
		if gcFuncs[fn] || strings.HasPrefix(fn, "runtime.gc") {
			return "gc"
		}
	}
	allRuntime := true
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if l, ok := pkgLayer[pkg]; ok {
			return l
		}
		if strings.HasPrefix(pkg, "smpigo/") {
			return "other"
		}
		if pkg != "runtime" && !strings.HasPrefix(pkg, "runtime/") && !strings.HasPrefix(pkg, "internal/") {
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime"
	}
	return "other"
}

// funcPackage returns the package path of a symbol such as
// "smpigo/internal/surf.(*Network).Advance".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuByLayer decodes a runtime/pprof CPU profile (gzipped protobuf) and
// returns the sampled CPU time per layer.
func cpuByLayer(gz []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]time.Duration)
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.str(p.funcName[fid]))
			}
		}
		if p.cpuIndex < len(s.values) {
			out[layerOf(stack)] += time.Duration(s.values[p.cpuIndex])
		}
	}
	return out, nil
}

// The subset of profile.proto (github.com/google/pprof) that attribution
// needs: samples, locations with their inlined function lines, function
// names and the string table.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
	cpuIndex int // index of the "cpu" value in each sample
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64), cpuIndex: -1}
	var sampleTypes [][2]int64 // (type, unit) string indexes
	err := pbFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]int64
			err := pbFields(data, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, vt)
			return err
		case 2: // sample
			var s profSample
			err := pbFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					return pbUints(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return pbUints(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := pbFields(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return pbFields(d, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, vt := range sampleTypes {
		if p.str(vt[0]) == "cpu" {
			p.cpuIndex = i
		}
	}
	if p.cpuIndex < 0 {
		return nil, errors.New("no cpu sample type")
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// pbFields walks the fields of one protobuf message, calling fn with the
// field number and either the varint value or the length-delimited bytes.
// Fixed-width fields, unused by profile.proto's messages here, are skipped.
func pbFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := pbVarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = pbVarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errTruncated
			}
			b = b[width:]
			continue
		case 2:
			l, n := pbVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// pbUints decodes a repeated integer field in either encoding: one varint
// (v) or a packed run (data).
func pbUints(v uint64, data []byte, add func(uint64)) error {
	if data == nil {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := pbVarint(data)
		if n == 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}

// pbVarint decodes a varint, returning its length (0 if malformed).
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
