// Command e2ebench is smpigo's end-to-end benchmark. It runs one named
// workload in this process through the public functions of the simulator's
// packages, checks the outputs, and prints one JSON line of metrics: the
// end-to-end metrics by default, the per-layer breakdown with --trace 1.
//
//	go run . --workload replay-trace --seed 1 --seconds 25 --trace 0
//
// METRICS.md describes the workloads, the metrics and how to read them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/platform"
)

// procStart approximates process start for span timestamps.
var procStart = time.Now()

// readyLine is what a --setup-only process prints once set-up is done.
const readyLine = "ready"

// setupRuns is how many fresh processes an untraced run times for setup_s.
const setupRuns = 11

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	traced    bool
	quick     bool     // minimal inputs, for the tests
	setupRuns int      // fresh processes timed for setup_s; 0 times this one
	spanDir   string   // where a traced run writes its spans; "" skips
	goldens   []golden // pinned fingerprints checked once per run
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// golden is a pinned campaign fingerprint: the behaviour contract that no
// change to the simulator may move.
type golden struct {
	name string
	seed uint64
	spec experiments.GridSpec
	want string
}

var pinnedGoldens = []golden{
	{"solver-smoke", 7, experiments.GridSpec{
		Op: "alltoall", Procs: []int{32}, Sizes: []int64{64 * core.KiB},
		Backends: []string{"surf"}, Topologies: []string{fatTree1k},
	}, "a8c5d1ab336ca9be"},
	{"implicit-routing", 5, experiments.GridSpec{
		Op: "allreduce", Procs: []int{16}, Sizes: []int64{64 * core.KiB},
		Models: []string{"piecewise"}, Backends: []string{"surf"},
		Topologies: []string{"fattree16", "torus16", "dragonfly72"},
		Placements: []string{"block", "rr"}, Collectives: "auto",
	}, "c37b74579cd4c210"},
}

func main() {
	runtime.GOMAXPROCS(procs)
	o := options{goldens: pinnedGoldens}
	var trace int
	var setupOnly bool
	flag.StringVar(&o.workload, "workload", "", "workload: alltoall-payload, replay-trace, service-mix")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 25, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer breakdown of a traced run instead of the end-to-end metrics")
	flag.StringVar(&o.spanDir, "spans", ".bench_build/spans", "directory a traced run writes its spans to")
	flag.BoolVar(&setupOnly, "setup-only", false, "set up, print "+readyLine+" and exit (used to sample setup_s)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.traced = trace == 1
	if !o.traced {
		o.setupRuns = setupRuns
	}
	if setupOnly {
		if err := setupOnlyRun(o); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(2)
		}
		return
	}
	res, err := run(o)
	if res == nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	printHuman(res)
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: run failed:", err)
		os.Exit(1)
	}
}

func setupOnlyRun(o options) error {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	inst, err := wl.setup(o, nil)
	if err != nil {
		return err
	}
	fmt.Println(readyLine)
	inst.close()
	return nil
}

// run sets up and measures one workload and checks its outputs. A nil
// result means the run could not start; a non-nil result with an error is
// a failed run (wrong outputs or failed ops), reported with Correct false.
func run(o options) (*result, error) {
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	var setup []float64
	if o.setupRuns > 0 {
		if setup, err = sampleSetup(o, o.setupRuns); err != nil {
			return nil, err
		}
	}
	var spans *spanLog
	if o.traced {
		spans = &spanLog{}
	}
	start := time.Now()
	inst, err := wl.setup(o, spans)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
	}
	defer inst.close()
	if len(setup) == 0 {
		setup = []float64{time.Since(start).Seconds()}
	}

	res := &result{Metrics: make(map[string]metric)}
	d := time.Duration(o.seconds * float64(time.Second))
	var phases []*phase
	var runErr error
	if !o.traced {
		var ph *phase
		ph, runErr = runPhase(inst, d, nil)
		phases = append(phases, ph)
		endToEnd(res, ph, setup)
	} else {
		// Half the time untraced, half traced: the ops/s difference between
		// the two halves is the tracing overhead.
		var plain, traced *phase
		plain, runErr = runPhase(inst, d/2, nil)
		phases = append(phases, plain)
		if runErr == nil {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
			traced, runErr = runPhase(inst, d/2, spans)
			pprof.StopCPUProfile()
			phases = append(phases, traced)
			if err := perLayer(res, o, inst, plain, traced, spans, prof.Bytes()); err != nil {
				return nil, err
			}
		}
	}
	for _, ph := range phases {
		res.Attempted += len(ph.rc.ops)
		res.Failed += ph.rc.failed
		if runErr == nil && ph.rc.firstErr != nil {
			runErr = ph.rc.firstErr
		}
	}
	if runErr == nil && res.Failed > 0 {
		runErr = fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	if runErr == nil {
		runErr = inst.check()
	}
	if runErr == nil {
		runErr = checkGoldens(o.goldens)
	}
	if spans != nil && o.spanDir != "" {
		name := fmt.Sprintf("%s-seed%d.json", wl.name, o.seed)
		if err := spans.write(o.spanDir, name); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	res.Correct = runErr == nil
	return res, runErr
}

// checkGoldens re-runs each pinned campaign and compares its fingerprint.
func checkGoldens(goldens []golden) error {
	env, err := experiments.NewEnv()
	if err != nil {
		return err
	}
	for _, g := range goldens {
		seed := g.seed
		sum, err := env.GridCampaignOpts(g.spec, experiments.CampaignOptions{Workers: workers, Seed: &seed})
		if err != nil {
			return fmt.Errorf("golden %s: %w", g.name, err)
		}
		if got := sum.Fingerprint(); got != g.want {
			return fmt.Errorf("golden %s: fingerprint %s, pinned %s", g.name, got, g.want)
		}
	}
	return nil
}

// endToEnd fills the metrics a user of the simulator sees.
func endToEnd(res *result, ph *phase, setup []float64) {
	n := float64(len(ph.rc.ops))
	put(res, "setup_s", median(setup), "s")
	put(res, "ops_per_s", ph.opsPerSec(), "1/s")
	put(res, "alloc_mb_per_op", float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc)/1e6/n, "MB")
	put(res, "peak_heap_mb", ph.peakLive/1e6, "MB")
}

// perLayer fills the per-layer breakdown of the traced phase. Per-op values
// divide by the traced phase's op count.
func perLayer(res *result, o options, inst instance, plain, traced *phase, spans *spanLog, prof []byte) error {
	n := float64(len(traced.rc.ops))
	cpu, err := cpuByLayer(prof)
	if err != nil {
		return err
	}
	for _, l := range cpuLayers {
		put(res, l+".self_ms", float64(cpu[l])/1e6/n, "ms-sampled")
	}
	// Op latency comes from the untraced half: its quantiles sit between
	// the host's fast and slow spells and move too much from run to run
	// to be bounded end-to-end metrics (METRICS.md).
	ms := make([]float64, len(plain.rc.ops))
	for i, d := range plain.rc.ops {
		ms[i] = float64(d) / 1e6
	}
	put(res, "op_ms.p50", quantile(ms, 0.5), "ms")
	put(res, "op_ms.p90", quantile(ms, 0.9), "ms")

	c := traced.rc.counts
	self := selfTimes(spans.snapshot())
	spanMs := func(name string) float64 { return float64(self[name]) / 1e6 }
	m0, m1 := traced.mem0, traced.mem1

	put(res, "alloc.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	put(res, "gc.cycles_per_op", float64(m1.NumGC-m0.NumGC)/n, "count")
	put(res, "gc.pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/n, "ms")

	put(res, "smpi.wire_mb", c["smpi.wire_bytes"]/1e6/n, "MB")
	put(res, "smpi.messages", c["smpi.messages"]/n, "count")
	put(res, "smpi.run_ms", spanMs("smpi.run")/n, "ms")

	put(res, "lmm.solves", (c["lmm.net.solves"]+c["lmm.cpu.solves"])/n, "count")
	put(res, "lmm.vars_per_solve", ratio(c["lmm.net.vars_resolved"]+c["lmm.cpu.vars_resolved"], c["lmm.net.solves"]+c["lmm.cpu.solves"]), "count")
	put(res, "lmm.component_vars.max", max(c["lmm.net.component_vars.max"], c["lmm.cpu.component_vars.max"]), "count")
	put(res, "surf.flows", c["net.flows"]/n, "count")
	put(res, "actionheap.stale_ratio", ratio(c["heap.net.stale"]+c["heap.cpu.stale"], c["heap.net.pops"]+c["heap.cpu.pops"]), "ratio")
	put(res, "simix.rounds", c["kernel.rounds"]/n, "count")
	put(res, "simix.actor_runs", c["kernel.actor_runs"]/n, "count")

	put(res, "trace.read_ms", spanMs("trace.read")/n, "ms")
	put(res, "trace.events", c["trace.events"]/n, "count")
	put(res, "replay.run_ms", spanMs("replay.run")/n, "ms")

	put(res, "platform.route_ns", routeNs(inst.platforms(), o.seed), "ns")
	put(res, "platform.routes", c["routes"]/n, "count")
	put(res, "topology.build_ms", spanMs("topology.build"), "ms")
	put(res, "experiments.env_build_ms", spanMs("experiments.env_build"), "ms")
	put(res, "experiments.expand_ms", spanMs("experiments.expand")/n, "ms")

	put(res, "campaign.busy_frac", ratio(c["campaign.job_wall_ns"], c["campaign.capacity_ns"]), "ratio")
	put(res, "campaign.job_wall_ms.max", c["campaign.job_wall_ns.max"]/1e6, "ms")

	s := traced.rc.samples
	put(res, "service.rtt_hit_ms.p50", median(s["service.rtt_hit_ms"]), "ms")
	put(res, "service.rtt_miss_ms.p50", median(s["service.rtt_miss_ms"]), "ms")
	put(res, "service.overhead_ms.p50", median(s["service.overhead_ms"]), "ms")
	put(res, "service.cache_hit_ratio", ratio(c["service.cache.hits"], c["service.cache.hits"]+c["service.cache.misses"]), "ratio")
	put(res, "service.queue_depth.max", c["service.queue.depth.max"], "count")

	put(res, "tracing.overhead_frac", 1-traced.opsPerSec()/plain.opsPerSec(), "ratio")
	return nil
}

// routeNs times Platform.RouteInto over every ordered pair of a seed-drawn
// sample of up to 64 hosts per platform and returns the mean per route.
func routeNs(plats []*platform.Platform, seed uint64) float64 {
	rng := rand.New(rand.NewPCG(seed, core.DeriveSeed(seed, "routes")))
	var buf []*platform.Link
	var routes int
	var total time.Duration
	for _, p := range plats {
		hosts := p.Hosts()
		perm := rng.Perm(len(hosts))
		sample := make([]*platform.Host, 0, 64)
		for _, i := range perm[:min(64, len(perm))] {
			sample = append(sample, hosts[i])
		}
		start := time.Now()
		for rep := 0; rep < 4; rep++ {
			for _, a := range sample {
				for _, b := range sample {
					if a != b {
						buf = p.RouteInto(buf[:0], a, b).Links
						routes++
					}
				}
			}
		}
		total += time.Since(start)
	}
	return ratio(float64(total), float64(routes))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func put(res *result, name string, v float64, unit string) {
	res.Metrics[name] = metric{Value: v, Unit: unit}
}

// printHuman writes the metrics as a table on standard error.
func printHuman(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", k, m.Value, m.Unit)
	}
}
