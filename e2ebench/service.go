package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"sync"
	"time"

	"smpigo/internal/core"
	"smpigo/internal/experiments"
	"smpigo/internal/platform"
	"smpigo/internal/service"
)

// serviceTopologies are the small real topologies service-mix grids use.
var serviceTopologies = []string{"fattree:4x4:1x4", "torus:4x4x4", "dragonfly:4x4x2"}

const (
	// Requests come in blocks of blockLen, of which repeatsPerBlock repeat
	// a pooled (spec, seed) pair in a seed-shuffled order: seven in ten, so
	// op_ms.p50 sits on the cache-hit path and op_ms.p90 on the miss path,
	// at exactly that share on every seed.
	blockLen        = 10
	repeatsPerBlock = 7
	// poolPairs is how many pairs set-up serves once, so the service caches
	// them before the first measured request. Repeats are drawn only from
	// this pool and every other request is a pair never asked before, so
	// whether a request hits or misses is fixed by the seed alone, not by
	// timing. Pool pairs are single small jobs,
	// so serving them costs set-up about the same on every seed.
	poolPairs = 8
	// newChecks is how many pairs first served in the run are re-run in
	// batch after it, besides the pool, to check the served fingerprint.
	newChecks = 8
)

// The axes new pairs' grids are drawn from. Every combination is one shape;
// new pairs take the shapes in passes, each a seed-shuffled order of all of
// them, so every seed asks the same mix of misses and only the order and the
// campaign seeds differ.
var (
	serviceOps        = []string{"alltoall", "allreduce", "bcast", "scatter"}
	serviceSizes      = []int64{4 * core.KiB, 16 * core.KiB, 64 * core.KiB}
	serviceProcs      = [][]int{{8}, {16}, {8, 16}}
	servicePlacements = [][]string{nil, {"block"}, {"rr"}, {"random"}, {"block", "rr"}}
	serviceShapes     = len(serviceOps) * len(serviceSizes) * len(serviceProcs) *
		len(serviceTopologies) * len(servicePlacements) * 2 // collectives auto or not
)

// gridRequest is the POST /v1/campaigns body.
type gridRequest struct {
	Spec experiments.GridSpec `json:"spec"`
	Seed uint64               `json:"seed"`
}

// requestGen produces the service-mix request sequence from the benchmark
// seed. Pairs 0 to poolPairs-1 are the pool; a request either repeats a
// pool pair (a cache hit) or introduces a new pair (a miss), which is never
// asked again. Each pair has its own seed, so no two pairs share a cache key.
type requestGen struct {
	mu       sync.Mutex
	rng      *rand.Rand
	quick    bool
	seedBase uint64
	pairs    []gridRequest
	block    []bool // the rest of the current block: true repeats a pool pair
	pool     []int  // pool pairs left in the current pass over the pool
	shapes   []int  // shapes left in the current pass over every shape
}

func newRequestGen(seed uint64, quick bool) *requestGen {
	g := &requestGen{
		rng:      rand.New(rand.NewPCG(seed, core.DeriveSeed(seed, "service-mix"))),
		quick:    quick,
		seedBase: core.DeriveSeed(seed, "service-mix/seeds"),
	}
	for range poolPairs {
		g.add(g.poolSpec())
	}
	return g
}

// next returns the next request, its pair index and whether it repeats a
// pool pair.
func (g *requestGen) next() (pair int, req gridRequest, repeat bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.block) == 0 {
		g.block = make([]bool, blockLen)
		for i := range repeatsPerBlock {
			g.block[i] = true
		}
		g.rng.Shuffle(blockLen, func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	repeat, g.block = g.block[0], g.block[1:]
	if repeat {
		if len(g.pool) == 0 {
			g.pool = g.rng.Perm(poolPairs)
		}
		i := g.pool[0]
		g.pool = g.pool[1:]
		return i, g.pairs[i], true
	}
	if len(g.shapes) == 0 {
		g.shapes = g.rng.Perm(serviceShapes)
	}
	i := g.add(g.shapeSpec(g.shapes[0]))
	g.shapes = g.shapes[1:]
	return i, g.pairs[i], false
}

// add appends a pair with its own seed and returns its index.
func (g *requestGen) add(spec experiments.GridSpec) int {
	g.pairs = append(g.pairs, gridRequest{Spec: spec, Seed: g.seedBase + uint64(len(g.pairs))})
	return len(g.pairs) - 1
}

// poolSpec draws a pool pair's grid: one 8-rank job of 4KiB.
func (g *requestGen) poolSpec() experiments.GridSpec {
	s := g.grid(serviceOps[g.rng.IntN(len(serviceOps))], []int{8}, 4*core.KiB,
		serviceTopologies[g.rng.IntN(len(serviceTopologies))], nil)
	if g.rng.IntN(2) == 0 {
		s.Collectives = "auto"
	}
	return s
}

// shapeSpec decodes shape k, 0 <= k < serviceShapes, into a grid of one to
// four jobs.
func (g *requestGen) shapeSpec(k int) experiments.GridSpec {
	pick := func(n int) int {
		i := k % n
		k /= n
		return i
	}
	op := serviceOps[pick(len(serviceOps))]
	size := serviceSizes[pick(len(serviceSizes))]
	procs := serviceProcs[pick(len(serviceProcs))]
	topo := serviceTopologies[pick(len(serviceTopologies))]
	s := g.grid(op, procs, size, topo, servicePlacements[pick(len(servicePlacements))])
	if pick(2) == 0 {
		s.Collectives = "auto"
	}
	return s
}

func (g *requestGen) grid(op string, procs []int, size int64, topo string, placements []string) experiments.GridSpec {
	if g.quick {
		procs, size = []int{4}, core.KiB
	}
	return experiments.GridSpec{
		Op: op, Procs: procs, Sizes: []int64{size}, Models: []string{"piecewise"},
		Backends: []string{"surf"}, Topologies: []string{topo}, Placements: placements,
	}
}

// serviceWorkload serves the campaign service on a loopback listener inside
// this process and drives it with a closed loop of one client.
type serviceWorkload struct {
	env       *experiments.Env
	srv       *service.Server
	hs        *http.Server
	serveDone chan struct{}
	client    *http.Client
	base      string
	gen       *requestGen
	plats     []*platform.Platform

	mu     sync.Mutex
	served map[int]string // pair index -> fingerprint first served
}

func setupService(o options, spans *spanLog) (instance, error) {
	env, err := newEnv(spans)
	if err != nil {
		return nil, err
	}
	if err := warmTopologies(env, serviceTopologies, spans); err != nil {
		return nil, err
	}
	plats, err := buildTopologies(serviceTopologies, spans)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	srv, err := service.New(service.Config{Env: env, Workers: workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	w := &serviceWorkload{
		env:       env,
		srv:       srv,
		hs:        &http.Server{Handler: srv.Handler()},
		serveDone: make(chan struct{}),
		client:    &http.Client{Transport: &http.Transport{}},
		base:      "http://" + ln.Addr().String(),
		gen:       newRequestGen(o.seed, o.quick),
		plats:     plats,
		served:    make(map[int]string),
	}
	go func() {
		defer close(w.serveDone)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	spans.add("service.start", -1, -1, start, time.Now())
	start = time.Now()
	for pair := range poolPairs {
		reply, class, err := w.post(w.gen.pairs[pair])
		if err == nil && class != "miss" {
			err = fmt.Errorf("first serving of pool pair %d was a cache %s", pair, class)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("serving the pool: %w", err)
		}
		w.served[pair] = reply.Fingerprint
	}
	spans.add("service.pool", -1, -1, start, time.Now())
	return w, nil
}

func (w *serviceWorkload) close() {
	_ = w.hs.Close()
	<-w.serveDone
	w.client.CloseIdleConnections()
	w.srv.Close()
}

func (w *serviceWorkload) platforms() []*platform.Platform { return w.plats }

// served view: the fields of the service's campaign JSON the benchmark uses.
type campaignReply struct {
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint"`
	Summary     *struct {
		Wall    time.Duration `json:"wall_ns"`
		Workers int           `json:"workers"`
		Results []struct {
			Wall time.Duration `json:"wall_ns"`
		} `json:"results"`
	} `json:"summary"`
}

func (w *serviceWorkload) measure(rc *runCtx) error {
	var before map[string]float64
	if rc.traced() {
		var err error
		if before, err = w.stats(); err != nil {
			return err
		}
	}
	for {
		w.request(rc)
		if rc.expired() {
			break
		}
	}
	if !rc.traced() {
		return nil
	}
	after, err := w.stats()
	if err != nil {
		return err
	}
	rc.count(map[string]float64{
		"service.cache.hits":      after["service.cache.hits"] - before["service.cache.hits"],
		"service.cache.misses":    after["service.cache.misses"] - before["service.cache.misses"],
		"service.queue.depth.max": after["service.queue.depth.max"],
	})
	return nil
}

// request issues one POST and records it as an op. Transport errors,
// refusals, unfinished campaigns, a repeat that is not a cache hit, a new
// pair that is not a miss, and a fingerprint differing from the pair's
// first serving all count as failed ops.
func (w *serviceWorkload) request(rc *runCtx) {
	pair, req, repeat := w.gen.next()
	start := time.Now()
	reply, class, err := w.post(req)
	end := time.Now()
	want := "miss"
	if repeat {
		want = "hit"
	}
	if err == nil && class != want {
		err = fmt.Errorf("pair %d: cache %s, want %s", pair, class, want)
	}
	if err == nil {
		w.mu.Lock()
		if first, ok := w.served[pair]; !ok {
			w.served[pair] = reply.Fingerprint
		} else if first != reply.Fingerprint {
			err = fmt.Errorf("pair %d served fingerprint %s, first %s", pair, reply.Fingerprint, first)
		}
		w.mu.Unlock()
	}
	op := rc.record(end.Sub(start), err != nil)
	if err != nil {
		rc.fail(err)
		return
	}
	if !rc.traced() {
		return
	}
	rtt := float64(end.Sub(start)) / 1e6
	root := rc.spans.add("op", op, -1, start, end)
	switch class {
	case "hit":
		rc.sample("service.rtt_hit_ms", rtt)
	case "miss":
		rc.sample("service.rtt_miss_ms", rtt)
		rc.sample("service.overhead_ms", rtt-float64(reply.Summary.Wall)/1e6)
		rc.spans.add("campaign.run", op, root, end.Add(-reply.Summary.Wall), end)
		var jobWall, jobWallMax time.Duration
		for _, r := range reply.Summary.Results {
			jobWall += r.Wall
			jobWallMax = max(jobWallMax, r.Wall)
		}
		rc.count(map[string]float64{
			"campaign.capacity_ns":     float64(reply.Summary.Workers) * float64(reply.Summary.Wall),
			"campaign.job_wall_ns":     float64(jobWall),
			"campaign.job_wall_ns.max": float64(jobWallMax),
		})
	}
}

// post submits req and waits for the finished campaign; class is the
// service's cache verdict: hit, miss or coalesced.
func (w *serviceWorkload) post(req gridRequest) (*campaignReply, string, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, "", err
	}
	resp, err := w.client.Post(w.base+"/v1/campaigns?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("POST /v1/campaigns: %s: %s", resp.Status, bytes.TrimSpace(blob))
	}
	var reply campaignReply
	if err := json.Unmarshal(blob, &reply); err != nil {
		return nil, "", fmt.Errorf("POST /v1/campaigns: %w", err)
	}
	if reply.Status != "done" || reply.Fingerprint == "" || reply.Summary == nil {
		return nil, "", fmt.Errorf("POST /v1/campaigns: campaign %s without a fingerprint", reply.Status)
	}
	return &reply, resp.Header.Get("X-Smpigod-Cache"), nil
}

// stats reads the service's /v1/stats counters.
func (w *serviceWorkload) stats() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	var flat map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&flat); err != nil {
		return nil, fmt.Errorf("GET /v1/stats: %w", err)
	}
	return flat, nil
}

// check re-runs the pool and the first newChecks new pairs served in batch
// through Env.GridCampaignOpts on the canonical spec and seed, and requires
// the fingerprint the service returned.
func (w *serviceWorkload) check() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	checked := 0
	for pair := 0; checked < poolPairs+newChecks && pair < len(w.gen.pairs); pair++ {
		served, ok := w.served[pair]
		if !ok {
			continue
		}
		req := w.gen.pairs[pair]
		spec, err := req.Spec.Canonicalize()
		if err != nil {
			return err
		}
		sum, err := w.env.GridCampaignOpts(spec, experiments.CampaignOptions{Workers: workers, Seed: &req.Seed})
		if err != nil {
			return err
		}
		if batch := sum.Fingerprint(); batch != served {
			return fmt.Errorf("pair %d: served fingerprint %s, batch GridCampaignOpts %s", pair, served, batch)
		}
		checked++
	}
	return nil
}
