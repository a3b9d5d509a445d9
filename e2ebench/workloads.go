package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/obs"
	"smpigo/internal/platform"
	"smpigo/internal/replay"
	"smpigo/internal/smpi"
	"smpigo/internal/topology"
	"smpigo/internal/trace"
)

// workers is the campaign pool size, and procs the Go scheduler's
// processor count. The benchmark generates and
// serves its load from one thread: on a machine whose few cores are shared
// with other tenants, every extra runnable thread makes the figures measure
// the host's scheduler rather than the simulator.
const (
	workers = 1
	procs   = 1
)

// instance is a workload after set-up.
type instance interface {
	// measure runs ops until rc's deadline passes, always finishing the
	// repetition in flight, so a run holds whole repetitions and at least
	// one. It returns an error when an output is wrong.
	measure(rc *runCtx) error
	// check verifies outputs that need the whole run.
	check() error
	// platforms are the workload's platforms for routing measurements;
	// grid workloads build them only in traced runs.
	platforms() []*platform.Platform
	close()
}

// workload is one named input set.
type workload struct {
	name  string
	setup func(o options, spans *spanLog) (instance, error)
}

var workloads = []workload{
	{"alltoall-payload", setupAlltoall},
	{"replay-trace", setupReplay},
	{"service-mix", setupService},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// newEnv returns the experiments environment (calibrated models and the
// paper's clusters), recording its construction as a set-up span.
func newEnv(spans *spanLog) (*experiments.Env, error) {
	start := time.Now()
	env, err := experiments.NewEnv()
	spans.add("experiments.env_build", -1, -1, start, time.Now())
	return env, err
}

// warmTopologies makes env build and cache the named platforms, as every
// grid job on them will share the cached instance: a two-rank ping-pong
// per topology is the cheapest public call that does it.
func warmTopologies(env *experiments.Env, topos []string, spans *spanLog) error {
	start := time.Now()
	sum, err := env.GridCampaignOpts(experiments.GridSpec{
		Op: "pingpong", Procs: []int{2}, Sizes: []int64{1},
		Backends: []string{"surf"}, Topologies: topos,
	}, experiments.CampaignOptions{Workers: workers})
	if err == nil {
		err = sum.Err()
	}
	spans.add("topology.warm", -1, -1, start, time.Now())
	if err != nil {
		return fmt.Errorf("warming topologies: %w", err)
	}
	return nil
}

// buildTopologies builds each named topology directly (traced runs only),
// recording one topology.build span per platform.
func buildTopologies(topos []string, spans *spanLog) ([]*platform.Platform, error) {
	if spans == nil {
		return nil, nil
	}
	plats := make([]*platform.Platform, 0, len(topos))
	for _, name := range topos {
		start := time.Now()
		spec, err := topology.ParseSpec(name)
		if err != nil {
			return nil, err
		}
		p, err := spec.Build()
		if err != nil {
			return nil, err
		}
		spans.add("topology.build", -1, -1, start, time.Now())
		plats = append(plats, p)
	}
	return plats, nil
}

// gridWorkload runs fixed GridSpecs as campaigns, repeatedly, at one
// campaign seed; one op is one campaign job.
type gridWorkload struct {
	env   *experiments.Env
	specs []experiments.GridSpec
	seed  uint64
	fps   []string // fingerprint of each spec's first campaign
	plats []*platform.Platform
}

const fatTree1k = "fattree:16x8x8:1x8x8"

// setupAlltoall is payload-bound: 32-rank alltoalls of 64, 128 and 256KiB
// per peer on the 1k-host fat-tree, unpinned (the solver-smoke point among
// them) and under block and round-robin placement. Three sizes in equal
// shares keep op_ms.p50 inside the 128KiB jobs and op_ms.p90 inside the
// 256KiB ones, rather than on the boundary between two groups.
func setupAlltoall(o options, spans *spanLog) (instance, error) {
	topo, procs, sizes := fatTree1k, []int{32}, []int64{64 * core.KiB, 128 * core.KiB, 256 * core.KiB}
	if o.quick {
		topo, procs, sizes = "fattree:4x4:1x4", []int{4}, []int64{core.KiB}
	}
	base := experiments.GridSpec{
		Op: "alltoall", Procs: procs, Sizes: sizes, Models: []string{"piecewise"},
		Backends: []string{"surf"}, Topologies: []string{topo},
	}
	placed := base
	placed.Placements = []string{"block", "rr"}
	return newGridWorkload(o, spans, []string{topo}, base, placed)
}

func newGridWorkload(o options, spans *spanLog, topos []string, specs ...experiments.GridSpec) (*gridWorkload, error) {
	env, err := newEnv(spans)
	if err != nil {
		return nil, err
	}
	if err := warmTopologies(env, topos, spans); err != nil {
		return nil, err
	}
	plats, err := buildTopologies(topos, spans)
	if err != nil {
		return nil, err
	}
	return &gridWorkload{env: env, specs: specs, seed: campaignSeed(o.seed), plats: plats}, nil
}

// campaignSeed derives the grid workloads' campaign seed from the
// benchmark seed.
func campaignSeed(seed uint64) uint64 { return core.DeriveSeed(seed, "campaign") }

func (g *gridWorkload) measure(rc *runCtx) error {
	for {
		for i := range g.specs {
			if err := g.campaign(rc, i); err != nil {
				return err
			}
		}
		if rc.expired() {
			return nil
		}
	}
}

func (g *gridWorkload) campaign(rc *runCtx, i int) error {
	spec := g.specs[i]
	opts := experiments.CampaignOptions{Workers: workers, Seed: &g.seed}
	var expandStart, expandEnd time.Time
	var ends []time.Time
	if rc.traced() {
		spec.Stats = true
		expandStart = time.Now()
		jobs, err := spec.Jobs()
		if err != nil {
			return err
		}
		expandEnd = time.Now()
		ends = make([]time.Time, jobs)
		opts.OnResult = func(i int, _ campaign.Result) { ends[i] = time.Now() }
	}
	start := time.Now()
	sum, err := g.env.GridCampaignOpts(spec, opts)
	end := time.Now()
	if err != nil {
		return err
	}
	fp := sum.Fingerprint()
	if len(g.fps) <= i {
		g.fps = append(g.fps, fp)
	} else if fp != g.fps[i] {
		return fmt.Errorf("%s campaign fingerprint %s differs from the first repetition's %s", spec.Op, fp, g.fps[i])
	}
	var jobWall, jobWallMax time.Duration
	ops := make([]int, len(sum.Results))
	for j, r := range sum.Results {
		ops[j] = rc.record(r.Wall, r.Err != nil)
		jobWall += r.Wall
		jobWallMax = max(jobWallMax, r.Wall)
		if r.Err != nil {
			return fmt.Errorf("job %s: %w", r.ID, r.Err)
		}
	}
	if !rc.traced() {
		return nil
	}
	rc.spans.add("experiments.expand", -1, -1, expandStart, expandEnd)
	parent := rc.spans.add("campaign.run", -1, -1, start, end)
	var wire, msgs int64
	for j, r := range sum.Results {
		job := rc.spans.add("op", ops[j], parent, ends[j].Add(-r.Wall), ends[j])
		if rep := reportOf(r.Outcome.Payload); rep != nil {
			rc.spans.add("smpi.run", ops[j], job, ends[j].Add(-rep.WallTime), ends[j])
			wire += rep.BytesOnWire
			msgs += rep.Messages
		}
	}
	rc.count(sum.Stats)
	rc.count(map[string]float64{
		"smpi.wire_bytes":          float64(wire),
		"smpi.messages":            float64(msgs),
		"campaign.capacity_ns":     float64(sum.Workers) * float64(sum.Wall),
		"campaign.job_wall_ns":     float64(jobWall),
		"campaign.job_wall_ns.max": float64(jobWallMax),
	})
	return nil
}

// reportOf extracts the *smpi.Report a collective job carries in its
// outcome payload (an exported Report field), or nil.
func reportOf(payload any) *smpi.Report {
	v := reflect.ValueOf(payload)
	if v.Kind() != reflect.Pointer || v.IsNil() || v.Elem().Kind() != reflect.Struct {
		return nil
	}
	f := v.Elem().FieldByName("Report")
	if !f.IsValid() || !f.CanInterface() {
		return nil
	}
	rep, _ := f.Interface().(*smpi.Report)
	return rep
}

func (g *gridWorkload) check() error                    { return nil }
func (g *gridWorkload) platforms() []*platform.Platform { return g.plats }
func (g *gridWorkload) close()                          {}

// replayWorkload records a trace once during set-up; one op reads it back
// and replays it.
type replayWorkload struct {
	cfg   smpi.Config
	trace []byte
	sim   core.Time // the recording run's simulated time
	msgs  int64     // and message count
	plat  *platform.Platform
}

// replayApp is the recorded application's shape.
type replayApp struct {
	procs, iters int
	chunk        int64
}

func replayShape(quick bool) replayApp {
	if quick {
		return replayApp{procs: 4, iters: 2, chunk: core.KiB}
	}
	return replayApp{procs: 32, iters: 3, chunk: 16 * core.KiB}
}

const replayTopology = "fattree:8x8:1x8"

func setupReplay(o options, spans *spanLog) (instance, error) {
	env, err := newEnv(spans)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	spec, err := topology.ParseSpec(replayTopology)
	if err != nil {
		return nil, err
	}
	plat, err := spec.Build()
	if err != nil {
		return nil, err
	}
	spans.add("topology.build", -1, -1, start, time.Now())
	w := &replayWorkload{cfg: smpi.Config{Platform: plat, Model: env.Piecewise}, plat: plat}
	start = time.Now()
	if err := w.record(replayShape(o.quick), o.seed); err != nil {
		return nil, err
	}
	spans.add("trace.record", -1, -1, start, time.Now())
	return w, nil
}

// record runs the iterative application — per iteration, a compute burst
// then an alltoall — with the tracer on, and keeps the written trace and
// the run's simulated time and message count.
func (w *replayWorkload) record(app replayApp, seed uint64) error {
	bursts := replayBursts(app, seed)
	tr := trace.New(app.procs)
	cfg := w.cfg
	cfg.Procs = app.procs
	cfg.Tracer = tr
	rep, err := smpi.Run(cfg, func(r *smpi.Rank) {
		send := make([]byte, int64(r.Size())*app.chunk)
		recv := make([]byte, int64(r.Size())*app.chunk)
		for _, d := range bursts[r.Rank()] {
			r.Elapse(d)
			r.Comm().Alltoall(r, send, recv)
		}
	})
	if err != nil {
		return fmt.Errorf("recording the trace: %w", err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	w.trace, w.sim, w.msgs = buf.Bytes(), rep.SimulatedTime, rep.Messages
	return nil
}

// replayBursts draws each rank's per-iteration compute burst, 50µs–1ms.
func replayBursts(app replayApp, seed uint64) [][]core.Duration {
	rng := rand.New(rand.NewPCG(seed, core.DeriveSeed(seed, "replay")))
	bursts := make([][]core.Duration, app.procs)
	for r := range bursts {
		for i := 0; i < app.iters; i++ {
			bursts[r] = append(bursts[r], core.Duration(50e-6+rng.Float64()*950e-6))
		}
	}
	return bursts
}

func (w *replayWorkload) measure(rc *runCtx) error {
	for {
		if err := w.op(rc); err != nil {
			return err
		}
		if rc.expired() {
			return nil
		}
	}
}

func (w *replayWorkload) op(rc *runCtx) error {
	cfg := w.cfg
	var st *obs.Stats
	if rc.traced() {
		st = new(obs.Stats)
		cfg.Stats = st
	}
	start := time.Now()
	tr, err := trace.Read(bytes.NewReader(w.trace))
	read := time.Now()
	var rep *smpi.Report
	if err == nil {
		rep, err = replay.Run(tr, cfg)
	}
	end := time.Now()
	if err == nil && (rep.SimulatedTime != w.sim || rep.Messages != w.msgs) {
		err = fmt.Errorf("replay gave simulated time %v and %d messages, the recording run %v and %d",
			rep.SimulatedTime, rep.Messages, w.sim, w.msgs)
	}
	op := rc.record(end.Sub(start), err != nil)
	if err != nil {
		return err
	}
	if !rc.traced() {
		return nil
	}
	root := rc.spans.add("op", op, -1, start, end)
	rc.spans.add("trace.read", op, root, start, read)
	run := rc.spans.add("replay.run", op, root, read, end)
	rc.spans.add("smpi.run", op, run, end.Add(-rep.WallTime), end)
	rc.count(st.Flat())
	rc.count(map[string]float64{
		"smpi.wire_bytes": float64(rep.BytesOnWire),
		"smpi.messages":   float64(rep.Messages),
		"trace.events":    float64(tr.Events()),
	})
	return nil
}

func (w *replayWorkload) check() error { return nil }

func (w *replayWorkload) platforms() []*platform.Platform { return []*platform.Platform{w.plat} }

func (w *replayWorkload) close() {}
