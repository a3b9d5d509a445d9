package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
	"smpigo/internal/dynamics"
	"smpigo/internal/emu"
	"smpigo/internal/obs"
	"smpigo/internal/placement"
	"smpigo/internal/platform"
	"smpigo/internal/skampi"
	"smpigo/internal/smpi"
	"smpigo/internal/surf"
)

// GridSpec describes an arbitrary scenario campaign beyond the paper's
// figures: the cross product of process counts, message sizes, models, and
// backends for one operation. A grid with 8 process counts, 10 sizes, and
// 3 models is 240 independent simulations — exactly the kind of sweep the
// serial harness could never afford and the campaign pool makes routine.
type GridSpec struct {
	// Op is the measured operation, one of OpNames().
	Op string `json:"op"`
	// Procs are the process counts to sweep; an op with a fixed process
	// count (pingpong always uses 2) ignores them.
	Procs []int `json:"procs"`
	// Sizes are the per-rank message sizes in bytes.
	Sizes []int64 `json:"sizes"`
	// Models are the analytical point-to-point models (ModelNames) to
	// sweep for the analytical backend; empty means the first of them.
	Models []string `json:"models,omitempty"`
	// Backends selects timing backends (BackendNames): the analytical one,
	// crossed with Models, and/or the packet-level testbed emulations.
	Backends []string `json:"backends,omitempty"`
	// Platform is "griffon" (default) or "gdx". Ignored when Topologies is
	// set.
	Platform string `json:"platform,omitempty"`
	// Topologies optionally adds a platform axis to the sweep: each entry
	// is "griffon", "gdx", a topology preset (fattree64, torus64,
	// dragonfly72, ...), or a topology shape string such as
	// "fattree:4x4:1x4", "torus:4x4x4", "dragonfly:9x4x2". Every scenario
	// point is then crossed with every topology.
	Topologies []string `json:"topologies,omitempty"`
	// Placements optionally adds a rank-placement axis: "block", "rr", or
	// "random" (see package placement). The random mapping derives from the
	// job's campaign seed, so fingerprints stay bit-identical at any
	// -parallel setting. Empty means the smpi default layout (round-robin
	// over all hosts, unpinned).
	Placements []string `json:"placements,omitempty"`
	// Collectives selects collective algorithm variants for every job, in
	// smpi.ParseAlgorithms grammar: "" or "default" for the package
	// defaults, "auto" for topology-keyed selection, or per-collective
	// overrides like "bcast=ring,allreduce=auto".
	Collectives string `json:"collectives,omitempty"`
	// Dynamics optionally adds a platform-event axis: each entry is a
	// dynamics schedule in the grammar of internal/dynamics ("" or "none"
	// for a static platform), so a sweep can compare the same scenarios on
	// healthy and degraded fabrics. Entries are canonicalized before
	// expansion; non-empty schedules require the surf backend. Events mutate
	// only per-job solver state, never the shared platform, so fingerprints
	// stay bit-identical at any -parallel setting.
	Dynamics []string `json:"dynamics,omitempty"`
	// Stats attaches a per-job obs.Stats to every simulation and records
	// the non-zero counters in each Outcome.Stats; campaign.Run aggregates
	// them into Summary.Stats. Counters never enter the fingerprint, so a
	// stats sweep fingerprints identically to a plain one.
	Stats bool `json:"stats,omitempty"`
	// RateTolerance opts every surf job into bounded-staleness solving
	// (smpi.Config's RateTolerance field). 0 is exact. A positive eps
	// changes simulated times deterministically: fingerprints remain
	// bit-identical at any -parallel setting, but differ from the
	// exact-mode fingerprints.
	RateTolerance float64 `json:"rate_tolerance,omitempty"`
	// ShardIndex/ShardCount split the expanded grid by job-index range so
	// one sweep can run across several processes or machines: shard i of n
	// keeps points [i·P/n, (i+1)·P/n) of the P-point grid, with job IDs and
	// derived seeds identical to the unsharded run's. Campaign summaries of
	// all n shards, merged in shard order with campaign.Merge, fingerprint
	// identically to the unsharded campaign. ShardCount 0 (with ShardIndex
	// 0) means unsharded; n larger than the grid simply leaves some shards
	// empty.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
}

// gridPoint is one scenario coordinate of the expanded grid.
type gridPoint struct {
	topo      string // resolved platform name; empty means spec.Platform
	dynamics  string // canonical dynamics schedule; empty means static
	placement string // canonical placement policy; empty means unpinned
	procs     int
	size      int64
	backend   string
	model     string // empty for emulated backends
}

// gridOp is one operation a grid can sweep: its process-count rule, its
// payload rule, and what each of its jobs runs.
type gridOp struct {
	name string
	// fixedProcs, when non-zero, replaces the procs axis: the op always
	// runs on that many ranks.
	fixedProcs int
	// checkSize, when non-nil, restricts the per-rank payload beyond being
	// positive.
	checkSize func(size int64) error
	// body is the collective every rank runs, timed from a barrier; an op
	// that is not a collective sets job instead, which builds the whole
	// job (ID and tags are set by gridJob).
	body collective
	job  func(pt gridPoint, plat *platform.Platform, cfg smpi.Config) campaign.Job
}

func (o gridOp) key() string { return o.name }

// gridOps is the single definition of the grid's operations.
var gridOps = []gridOp{
	{name: "scatter", body: scatterBody},
	{name: "alltoall", body: alltoallBody},
	{name: "bcast", body: bcastBody},
	{name: "allreduce", body: allreduceBody, checkSize: float64Payload},
	{name: "pingpong", fixedProcs: 2, job: pingPongGridJob},
}

// gridBackend is a timing backend: the analytical one crosses with the
// model axis and accepts dynamics; the others emulate the testbed at
// packet level, running impl (nil: OpenMPI, the emulator's default).
type gridBackend struct {
	name       string
	analytical bool
	impl       func() emu.MPIImpl
}

func (b gridBackend) key() string { return b.name }

// gridBackends is the single definition of the grid's timing backends.
var gridBackends = []gridBackend{
	{"surf", true, nil},
	{"openmpi", false, nil},
	{"mpich2", false, mpich2},
}

// gridModel is an analytical point-to-point model, read off the calibrated
// env.
type gridModel struct {
	name  string
	model func(e *Env) surf.NetModel
}

func (m gridModel) key() string { return m.name }

// gridModels is the single definition of the analytical models; the first
// is the default.
var gridModels = []gridModel{
	{"piecewise", func(e *Env) surf.NetModel { return e.Piecewise }},
	{"bestfit", func(e *Env) surf.NetModel { return e.BestFit }},
	{"default", func(e *Env) surf.NetModel { return e.Default }},
	{"ideal", func(*Env) surf.NetModel { return surf.Ideal() }},
}

// Model returns the named analytical point-to-point model (ModelNames).
func (e *Env) Model(name string) (surf.NetModel, error) {
	m, err := lookup("model", gridModels, name)
	if err != nil {
		return surf.NetModel{}, err
	}
	return m.model(e), nil
}

// CollectiveOps lists the grid ops that are collectives (see
// CollectiveApp).
func CollectiveOps() []string {
	var out []string
	for _, op := range gridOps {
		if op.body != nil {
			out = append(out, op.name)
		}
	}
	return out
}

// CollectiveApp returns the application a collective grid op runs: every
// rank synchronizes on a barrier, then runs the collective with chunk
// bytes per rank — the body each grid job of that op measures. It returns
// nil, nil when op is not a collective grid op, and an error when chunk
// breaks the op's payload rule.
func CollectiveApp(op string, chunk int64) (func(*smpi.Rank), error) {
	o, err := lookup("op", gridOps, op)
	if err != nil || o.body == nil {
		return nil, nil
	}
	if o.checkSize != nil {
		if err := o.checkSize(chunk); err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
	}
	return func(r *smpi.Rank) {
		c := r.Comm()
		c.Barrier(r)
		o.body(r, c, chunk)
	}, nil
}

// cluster is one of the paper's measured clusters, addressable by name on
// the platform and topology axes.
type cluster struct {
	name     string
	platform func(e *Env) *platform.Platform
}

func (c cluster) key() string { return c.name }

// clusters lists the paper's clusters; the first is the platform of a spec
// without a platform or topology axis.
var clusters = []cluster{
	{"griffon", func(e *Env) *platform.Platform { return e.Griffon }},
	{"gdx", func(e *Env) *platform.Platform { return e.Gdx }},
}

// gridPlatform resolves a normalized platform-axis value: the paper's
// clusters by name, then topology presets and shape strings. Generated
// platforms are cached on the env so every job of a sweep shares one
// instance (and its memoized route table).
func (e *Env) gridPlatform(name string) (*platform.Platform, error) {
	if c, ok := find(clusters, name); ok {
		return c.platform(e), nil
	}
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	if p, ok := e.topoPlatforms[name]; ok {
		return p, nil
	}
	spec, err := platformSpec(name)
	if err != nil {
		return nil, err
	}
	p, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if e.topoPlatforms == nil {
		e.topoPlatforms = make(map[string]*platform.Platform)
	}
	e.topoPlatforms[name] = p
	return p, nil
}

// expand normalizes the spec and returns it with its scenario points in
// grid order: the cross product of the normalized axes, in the caller's
// order, sliced to the spec's shard.
func (spec GridSpec) expand() (GridSpec, []gridPoint, error) {
	c, err := spec.normalize()
	if err != nil {
		return GridSpec{}, nil, err
	}
	orNone := func(axis []string) []string {
		if len(axis) == 0 {
			return []string{""}
		}
		return axis
	}
	var points []gridPoint
	for _, topo := range orNone(c.Topologies) {
		for _, dyn := range orNone(c.Dynamics) {
			for _, place := range orNone(c.Placements) {
				for _, procs := range c.Procs {
					for _, size := range c.Sizes {
						for _, name := range c.Backends {
							b, _ := find(gridBackends, name)
							models := []string{""}
							if b.analytical {
								models = c.Models
							}
							for _, m := range models {
								points = append(points, gridPoint{topo, dyn, place, procs, size, name, m})
							}
						}
					}
				}
			}
		}
	}
	return c, shardSlice(points, c.ShardIndex, c.ShardCount), nil
}

// checkShard validates a shard index and count: count 0 (with index 0)
// means unsharded, otherwise index must lie in [0, count).
func checkShard(index, count int) error {
	if count == 0 {
		if index != 0 {
			return fmt.Errorf("grid: shard index %d without a shard count", index)
		}
		return nil
	}
	if count < 0 {
		return fmt.Errorf("grid: negative shard count %d", count)
	}
	if index < 0 || index >= count {
		return fmt.Errorf("grid: shard index %d out of range [0,%d)", index, count)
	}
	return nil
}

// shardSlice keeps shard index's contiguous job-index range of the expanded
// grid (checkShard has validated the pair). The balanced-split arithmetic
// (lo = i·P/n) guarantees the n ranges tile [0, P) exactly — every point
// lands in precisely one shard, shards differ in size by at most one point,
// and a shard count beyond the grid size yields empty shards rather than an
// error.
func shardSlice(points []gridPoint, index, count int) []gridPoint {
	if count == 0 {
		return points
	}
	lo := index * len(points) / count
	hi := (index + 1) * len(points) / count
	return points[lo:hi]
}

// ParseShard parses the "i/n" shard shorthand (e.g. "0/2") used by the
// campaign CLI flag and the service API into ShardIndex/ShardCount values.
// Range validation happens at expansion time, where the grid size is known.
func ParseShard(s string) (index, count int, err error) {
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return 0, 0, fmt.Errorf("shard %q: want \"i/n\", e.g. \"0/2\"", s)
	}
	if index, err = strconv.Atoi(strings.TrimSpace(i)); err != nil {
		return 0, 0, fmt.Errorf("shard %q: bad index: %v", s, err)
	}
	if count, err = strconv.Atoi(strings.TrimSpace(n)); err != nil {
		return 0, 0, fmt.Errorf("shard %q: bad count: %v", s, err)
	}
	return index, count, nil
}

func (pt gridPoint) id(op string) string {
	id := "grid/" + op
	if pt.topo != "" {
		id += "/topo=" + pt.topo
	}
	if pt.dynamics != "" {
		// Canonical schedules contain spaces; keep IDs single-token.
		id += "/dyn=" + strings.ReplaceAll(pt.dynamics, " ", "_")
	}
	if pt.placement != "" {
		id += "/place=" + pt.placement
	}
	id += fmt.Sprintf("/procs=%d/size=%s/%s", pt.procs, core.FormatBytes(pt.size), pt.backend)
	if pt.model != "" {
		id += "/" + pt.model
	}
	return id
}

func (pt gridPoint) tags(op string) map[string]string {
	t := map[string]string{
		"op":      op,
		"procs":   fmt.Sprint(pt.procs),
		"size":    core.FormatBytes(pt.size),
		"backend": pt.backend,
	}
	if pt.topo != "" {
		t["topo"] = pt.topo
	}
	if pt.dynamics != "" {
		t["dynamics"] = pt.dynamics
	}
	if pt.placement != "" {
		t["placement"] = pt.placement
	}
	if pt.model != "" {
		t["model"] = pt.model
	}
	return t
}

// Jobs expands the spec and returns how many simulations it holds (after
// shard slicing), validating every axis on the way — the pre-flight check
// the campaign service runs before accepting a request, so malformed specs
// fail with a 400 instead of a queued failure.
func (spec GridSpec) Jobs() (int, error) {
	_, points, err := spec.expand()
	if err != nil {
		return 0, err
	}
	return len(points), nil
}

// CampaignOptions adjusts how GridCampaignOpts executes an expanded grid.
// The zero value reproduces GridCampaign exactly.
type CampaignOptions struct {
	// Ctx cancels the campaign mid-run (see campaign.RunAll); nil means
	// context.Background().
	Ctx context.Context
	// Workers overrides Env.Workers when non-zero, so a shared Env (it is a
	// process-wide singleton) can serve callers with different pool sizes
	// without mutation.
	Workers int
	// Seed overrides Env.Seed when non-nil, for the same reason.
	Seed *uint64
	// OnResult streams per-job results in completion order (see
	// campaign.Options.OnResult).
	OnResult func(i int, r campaign.Result)
}

// GridCampaign expands the spec into campaign jobs and runs them on the
// env's worker pool, returning the full summary (including failures, so a
// broken scenario point does not void the rest of the sweep).
func (e *Env) GridCampaign(spec GridSpec) (*campaign.Summary, error) {
	return e.GridCampaignOpts(spec, CampaignOptions{})
}

// GridCampaignOpts is GridCampaign with per-call context, worker-pool,
// seed, and result-streaming control — the entry point the campaign service
// uses, where one shared Env serves many concurrent requests.
func (e *Env) GridCampaignOpts(spec GridSpec, o CampaignOptions) (*campaign.Summary, error) {
	spec, points, err := spec.expand()
	if err != nil {
		return nil, err
	}
	op, err := lookup("op", gridOps, spec.Op)
	if err != nil {
		return nil, err
	}
	algos, err := smpi.ParseAlgorithms(spec.Collectives)
	if err != nil {
		return nil, fmt.Errorf("grid: %w", err)
	}
	jobs := make([]campaign.Job, 0, len(points))
	for _, pt := range points {
		platName := pt.topo
		if platName == "" {
			platName = spec.Platform
		}
		plat, err := e.gridPlatform(platName)
		if err != nil {
			return nil, err
		}
		cfg, err := e.gridConfig(plat, pt)
		if err != nil {
			return nil, err
		}
		cfg.Algorithms = algos
		cfg.RateTolerance = spec.RateTolerance
		if pt.dynamics != "" {
			// Re-parse the canonical form per job: schedules are armed on the
			// job's own kernel and mutate only its solver state, so concurrent
			// jobs sharing the cached platform never observe each other.
			sched, err := dynamics.Parse(pt.dynamics)
			if err != nil {
				return nil, fmt.Errorf("grid: dynamics %q: %w", pt.dynamics, err)
			}
			cfg.Dynamics = sched
		}
		// Each job gets its own Stats sink: jobs run concurrently, and the
		// wrapped Run flattens the counters into the outcome after the
		// simulation finishes (the sink is quiescent by then).
		var st *obs.Stats
		if spec.Stats {
			st = new(obs.Stats)
			cfg.Stats = st
		}
		job := gridJob(op, pt, plat, cfg)
		if st != nil {
			inner := job.Run
			job.Run = func(ctx *campaign.Ctx) (*campaign.Outcome, error) {
				out, err := inner(ctx)
				if out != nil {
					out.Stats = obs.NonZero(st.Flat())
				}
				return out, err
			}
		}
		jobs = append(jobs, job)
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	workers := o.Workers
	if workers == 0 {
		workers = e.Workers
	}
	seed := e.Seed
	if o.Seed != nil {
		seed = *o.Seed
	}
	return campaign.RunAll(ctx, campaign.Options{Workers: workers, Seed: seed, OnResult: o.OnResult}, jobs), nil
}

// gridConfig returns the simulation config of one scenario point.
func (e *Env) gridConfig(plat *platform.Platform, pt gridPoint) (smpi.Config, error) {
	b, err := lookup("backend", gridBackends, pt.backend)
	if err != nil {
		return smpi.Config{}, err
	}
	if !b.analytical {
		cfg := emuConfig(plat)
		if b.impl != nil {
			cfg.Impl = b.impl()
		}
		return cfg, nil
	}
	model, err := e.Model(pt.model)
	if err != nil {
		return smpi.Config{}, err
	}
	return surfConfig(plat, model), nil
}

// gridJob builds the campaign job of one scenario point of op.
func gridJob(op gridOp, pt gridPoint, plat *platform.Platform, cfg smpi.Config) campaign.Job {
	var j campaign.Job
	if op.job != nil {
		j = op.job(pt, plat, cfg)
	} else {
		j = placedCollectiveJob("", cfg, pt.placement, pt.procs, pt.size, op.body)
	}
	j.ID, j.Tags = pt.id(op.name), pt.tags(op.name)
	return j
}

// pingPongGridJob measures the SKaMPI one-way ping-pong time of pt.size
// bytes between two ranks.
func pingPongGridJob(pt gridPoint, plat *platform.Platform, cfg smpi.Config) campaign.Job {
	return campaign.Job{
		Run: func(ctx *campaign.Ctx) (*campaign.Outcome, error) {
			base := cfg
			base.Seed = ctx.Seed
			// A placed ping-pong runs between the first two ranks of the
			// mapping (e.g. same leaf under "block", distinct leaves under
			// "rr") instead of the platform's first two hosts.
			a, b := plat.HostByID(0), plat.HostByID(1)
			if pt.placement != "" {
				hosts, err := placement.Generate(pt.placement, plat, 2, ctx.Seed)
				if err != nil {
					return nil, err
				}
				a, b = hosts[0], hosts[1]
			}
			samples, err := skampi.PingPong(skampi.PingPongConfig{
				Base: base,
				A:    a, B: b,
				Sizes: []int64{pt.size},
			})
			if err != nil {
				return nil, err
			}
			return &campaign.Outcome{
				SimulatedTime: core.Time(samples[0].Time),
				Values:        map[string]float64{"oneway_s": samples[0].Time},
				Payload:       samples,
			}, nil
		},
	}
}

// GridTable renders a grid campaign summary as an aligned table, one row
// per scenario point in grid order.
func GridTable(spec GridSpec, sum *campaign.Summary) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Campaign: %s grid (%d jobs, %d workers, seed %d)", spec.Op, sum.Jobs, sum.Workers, sum.Seed),
		Header: []string{"topo", "place", "procs", "size", "backend", "model", "simulated_s", "wall_s"},
	}
	for i := range sum.Results {
		r := &sum.Results[i]
		model := r.Tags["model"]
		if model == "" {
			model = "-"
		}
		topo := r.Tags["topo"]
		if topo == "" {
			if topo = spec.Platform; topo == "" {
				topo = "griffon"
			}
		}
		place := r.Tags["placement"]
		if place == "" {
			place = "-"
		}
		if r.Err != nil {
			reason := "error"
			if r.Panicked {
				reason = "panic"
			}
			t.Add(topo, place, r.Tags["procs"], r.Tags["size"], r.Tags["backend"], model, reason, r.Wall.Seconds())
			// Surface the failure reason (first line only: panics carry a
			// full stack) so broken sweeps are diagnosable without -json.
			msg := r.Error
			if i := strings.IndexByte(msg, '\n'); i >= 0 {
				msg = msg[:i]
			}
			t.Note("%s: %s", r.ID, msg)
			continue
		}
		t.Add(topo, place, r.Tags["procs"], r.Tags["size"], r.Tags["backend"], model,
			float64(r.Outcome.SimulatedTime), r.Wall.Seconds())
	}
	t.Note("total simulated %.6gs, max %.6gs, campaign wall %.3gs, %d failed",
		float64(sum.TotalSimulated), float64(sum.MaxSimulated), sum.Wall.Seconds(), sum.Failed)
	t.Note("fingerprint %s (bit-identical at any -parallel)", sum.Fingerprint())
	return t
}
