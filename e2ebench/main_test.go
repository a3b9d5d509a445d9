package main

import (
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// benchmarkSpec is the part of ../BENCHMARK.json the program must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func quickOptions(workload string, traced bool) options {
	return options{workload: workload, seed: 1, seconds: 0.05, traced: traced, quick: true, goldens: pinnedGoldens}
}

// TestQuickRunPrintsEveryMetric runs each workload once at minimal size,
// untraced and traced, and requires exactly the metrics BENCHMARK.json
// names, each with its unit.
func TestQuickRunPrintsEveryMetric(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for _, w := range workloads {
		known = append(known, w.name)
	}
	if !slices.Equal(names, known) {
		t.Fatalf("BENCHMARK.json workloads %v, program workloads %v", names, known)
	}
	for _, w := range names {
		for _, traced := range []bool{false, true} {
			want := make(map[string]string)
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := run(quickOptions(w, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			got := make(map[string]string)
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v: metrics and units\n got %v\nwant %v", w, traced, got, want)
			}
		}
	}
}

// TestWrongGoldenFailsRun corrupts one pinned fingerprint: the run must
// fail, not just report.
func TestWrongGoldenFailsRun(t *testing.T) {
	o := quickOptions("replay-trace", false)
	o.goldens = slices.Clone(pinnedGoldens)
	o.goldens[0].want = "0000000000000000"
	res, err := run(o)
	if err == nil || !strings.Contains(err.Error(), "golden "+o.goldens[0].name) {
		t.Fatalf("run with a wrong golden returned %v, want a golden mismatch", err)
	}
	if res == nil || res.Correct {
		t.Fatalf("run with a wrong golden reported %+v, want Correct false", res)
	}
}

// TestSeedReproducesInputs checks that a seed fixes the generated inputs:
// the service-mix request sequence, the recorded trace and the campaign
// seed — and that another seed changes them.
func TestSeedReproducesInputs(t *testing.T) {
	sequence := func(seed uint64) string {
		g := newRequestGen(seed, false)
		var b strings.Builder
		enc := json.NewEncoder(&b)
		for i := 0; i < 500; i++ {
			pair, req, repeat := g.next()
			if err := enc.Encode([]any{pair, req, repeat}); err != nil {
				t.Fatal(err)
			}
		}
		return b.String()
	}
	if sequence(3) != sequence(3) {
		t.Error("service-mix request sequence differs for the same seed")
	}
	if sequence(3) == sequence(4) {
		t.Error("service-mix request sequence identical for seeds 3 and 4")
	}

	recorded := func(seed uint64) *replayWorkload {
		inst, err := setupReplay(options{seed: seed}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return inst.(*replayWorkload)
	}
	a, b, c := recorded(3), recorded(3), recorded(4)
	if string(a.trace) != string(b.trace) || a.sim != b.sim || a.msgs != b.msgs {
		t.Error("recorded trace differs for the same seed")
	}
	if string(a.trace) == string(c.trace) {
		t.Error("recorded trace identical for seeds 3 and 4")
	}

	if campaignSeed(3) != campaignSeed(3) || campaignSeed(3) == campaignSeed(4) {
		t.Error("campaign seed is not a function of the benchmark seed")
	}
}

// TestRepeatsComeFromThePool checks the request sequence's shape, on which
// the hit/miss split rests: a repeat names a pool pair, which set-up has
// served; any other request is a pair never asked before; no two pairs
// share a seed, so no two share a cache key; every block holds the same
// share of repeats; and a pass over the shapes asks each shape once, so
// every seed asks the same mix of misses.
func TestRepeatsComeFromThePool(t *testing.T) {
	g := newRequestGen(1, false)
	asked := make(map[int]bool)
	var specs []string
	repeats := 0
	for p := 0; p < 4*serviceShapes; p++ {
		pair, req, repeat := g.next()
		if repeat {
			repeats++
			if pair >= poolPairs {
				t.Fatalf("position %d repeats pair %d, outside the pool of %d", p, pair, poolPairs)
			}
		} else {
			if pair < poolPairs || asked[pair] {
				t.Fatalf("position %d: new pair %d was asked before", p, pair)
			}
			asked[pair] = true
			blob, err := json.Marshal(req.Spec)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, string(blob))
		}
		if (p+1)%blockLen == 0 {
			if repeats != repeatsPerBlock {
				t.Fatalf("block ending at position %d holds %d repeats, want %d", p, repeats, repeatsPerBlock)
			}
			repeats = 0
		}
	}
	seeds := make(map[uint64]bool)
	for _, req := range g.pairs {
		if seeds[req.Seed] {
			t.Fatalf("seed %d used by two pairs", req.Seed)
		}
		seeds[req.Seed] = true
	}
	if len(specs) < serviceShapes {
		t.Fatalf("%d new pairs, fewer than the %d shapes", len(specs), serviceShapes)
	}
	pass := slices.Clone(specs[:serviceShapes])
	slices.Sort(pass)
	if n := len(slices.Compact(pass)); n != serviceShapes {
		t.Errorf("the first %d new pairs have %d distinct specs, want every shape once", serviceShapes, n)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(ms int) int64 { return int64(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: at(0), End: at(100)},
		{ID: 1, Parent: 0, Name: "child", Start: at(10), End: at(40)},
		{ID: 2, Parent: 0, Name: "child", Start: at(30), End: at(60)},  // overlaps 1
		{ID: 3, Parent: 0, Name: "child", Start: at(90), End: at(120)}, // runs past the parent
		{ID: 4, Parent: 2, Name: "leaf", Start: at(35), End: at(45)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"op":    40 * time.Millisecond, // 100 minus [10,60) and [90,100)
		"child": 80 * time.Millisecond, // 30 + (30-10) + 30
		"leaf":  10 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "smpigo/internal/smpi.(*Comm).Alltoall"}, "payload"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "smpigo/internal/lmm.(*System).Solve"}, "gc"},
		{[]string{"sort.insertionSort", "sort.Sort", "smpigo/internal/lmm.(*System).Solve"}, "lmm"},
		{[]string{"runtime.futex", "runtime.chansend", "smpigo/internal/simix.(*Kernel).Run"}, "simix"},
		{[]string{"smpigo/internal/surf/actionheap.(*Heap).Pop"}, "actionheap"},
		{[]string{"smpigo/internal/surf.(*Network).Advance.func1"}, "surf"},
		{[]string{"smpigo/internal/core.(*RNG).Uint64"}, "other"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
		{[]string{"main.(*serviceWorkload).request"}, "bench"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}
