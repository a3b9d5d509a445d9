package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"smpigo/internal/campaign"
)

// runCtx is what a workload's measure loop reports into: completed ops, and
// in a traced phase its spans, counters and latency samples.
type runCtx struct {
	deadline time.Time
	spans    *spanLog // nil when the phase is untraced

	mu       sync.Mutex
	ops      []time.Duration
	failed   int
	firstErr error                // first failed op's cause, for ops that do not stop the run
	counts   map[string]float64   // summed; ".max" keys keep the maximum
	samples  map[string][]float64 // per-layer latency samples
}

func (rc *runCtx) expired() bool { return !time.Now().Before(rc.deadline) }

func (rc *runCtx) traced() bool { return rc.spans != nil }

// record adds one op and returns its ID, which the op's spans share.
func (rc *runCtx) record(wall time.Duration, failed bool) int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.ops = append(rc.ops, wall)
	if failed {
		rc.failed++
	}
	return len(rc.ops) - 1
}

func (rc *runCtx) fail(err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.firstErr == nil {
		rc.firstErr = err
	}
}

// count merges counters with campaign.MergeStats semantics.
func (rc *runCtx) count(flat map[string]float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.counts = campaign.MergeStats(rc.counts, flat)
}

func (rc *runCtx) sample(name string, v float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.samples == nil {
		rc.samples = make(map[string][]float64)
	}
	rc.samples[name] = append(rc.samples[name], v)
}

// phase is one measurement window.
type phase struct {
	rc       *runCtx
	elapsed  time.Duration
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	peakLive float64 // bytes: the highest live-heap reading
}

func (p *phase) opsPerSec() float64 { return float64(len(p.rc.ops)) / p.elapsed.Seconds() }

// runPhase runs the workload for the given time, sampling the live heap.
// The heap is collected first so every window starts from the same state.
func runPhase(w instance, d time.Duration, spans *spanLog) (*phase, error) {
	runtime.GC()
	p := &phase{}
	runtime.ReadMemStats(&p.mem0)
	start := time.Now()
	stop := sampleLiveHeap()
	p.rc = &runCtx{deadline: start.Add(d), spans: spans}
	err := w.measure(p.rc)
	p.elapsed = time.Since(start)
	p.peakLive = stop()
	runtime.ReadMemStats(&p.mem1)
	return p, err
}

// sampleLiveHeap polls the runtime's live-heap figure every 5ms until the
// returned stop function is called; stop returns the highest reading.
func sampleLiveHeap() (stop func() float64) {
	var peak float64
	done := make(chan struct{})
	exited := make(chan struct{})
	read := func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			peak = max(peak, float64(s[0].Value.Uint64()))
		}
	}
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		<-exited
		return peak
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sampleSetup runs the benchmark's set-up in n fresh processes, one after
// another, and returns each one's time from process start until it reports
// that the first op could be issued.
func sampleSetup(o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup sampling: %w", err)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := timeSetupProcess(exe, o)
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

func timeSetupProcess(exe string, o options) (time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "--setup-only", "--workload", o.workload, "--seed", fmt.Sprint(o.seed))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("setup sampling: %w", err)
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("setup sampling: child process: %w", err)
	}
	if readErr != nil || line != readyLine+"\n" {
		return 0, fmt.Errorf("setup sampling: child printed %q, want %q", line, readyLine)
	}
	return d, nil
}
