package lmm_test

// Solver benchmarks at the 1k-host scale PR 2's topology generators made
// constructible: a 1024-host three-level fat-tree (fattree:16x8x8:1x8x8)
// carrying a steady population of flows, churned one completion + one start
// at a time — exactly the event pattern surf.Network feeds the solver
// during a simulation. The "full" baseline re-solves everything after each
// event (the pre-incremental behaviour); "incremental" re-solves only the
// components the churned flow touched. BENCH_lmm.json records the measured
// before/after.
//
// Two traffic shapes bracket the payoff:
//
//   - neighbor: every host streams to its ring successor (the steady state
//     of the ring collectives), which D-mod-k keeps mostly under the leaf
//     switches — components are tiny and selective re-solve is ~free;
//   - random: uniformly random host pairs; the shared spine links couple
//     most flows into a few large components, the adversarial case where
//     the dirty set buys the least.

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"smpigo/internal/lmm"
	"smpigo/internal/platform"
	"smpigo/internal/topology"
)

type fatTreeBench struct {
	plat  *platform.Platform
	hosts []*platform.Host
	sys   *lmm.System
	cons  map[*platform.Link]*lmm.Constraint
	flows []*lmm.Variable
	pairs [][2]int
	rng   *rand.Rand
}

func newFatTreeBench(b *testing.B, shape string) *fatTreeBench {
	b.Helper()
	spec, err := topology.ParseSpec(shape)
	if err != nil {
		b.Fatal(err)
	}
	plat, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	return &fatTreeBench{
		plat:  plat,
		hosts: plat.Hosts(),
		sys:   lmm.New(),
		cons:  make(map[*platform.Link]*lmm.Constraint),
		rng:   rand.New(rand.NewSource(7)),
	}
}

// newFlow builds the LMM variable for one src→dst flow without registering
// it in the churn bookkeeping (the pods benchmark keeps its own).
func (ft *fatTreeBench) newFlow(src, dst int) *lmm.Variable {
	route := ft.plat.Route(ft.hosts[src], ft.hosts[dst])
	v := ft.sys.NewVariable("flow", 1, math.Inf(1))
	for _, l := range route.Links {
		c, ok := ft.cons[l]
		if !ok {
			c = ft.sys.NewConstraint(l.Name(), l.Bandwidth, l.Policy)
			ft.cons[l] = c
		}
		ft.sys.Attach(v, c)
	}
	return v
}

func (ft *fatTreeBench) addFlow(src, dst int) {
	ft.flows = append(ft.flows, ft.newFlow(src, dst))
	ft.pairs = append(ft.pairs, [2]int{src, dst})
}

func (ft *fatTreeBench) randomPair() (int, int) {
	src := ft.rng.Intn(len(ft.hosts))
	dst := ft.rng.Intn(len(ft.hosts) - 1)
	if dst >= src {
		dst++
	}
	return src, dst
}

// churn replays one simulation event: a randomly chosen flow completes and
// a successor starts (same pair for neighbor traffic — the next ring step —
// or a fresh random pair).
func (ft *fatTreeBench) churn(random bool) {
	i := ft.rng.Intn(len(ft.flows))
	ft.sys.RemoveVariable(ft.flows[i])
	src, dst := ft.pairs[i][0], ft.pairs[i][1]
	last := len(ft.flows) - 1
	ft.flows[i], ft.pairs[i] = ft.flows[last], ft.pairs[last]
	ft.flows, ft.pairs = ft.flows[:last], ft.pairs[:last]
	if random {
		src, dst = ft.randomPair()
	}
	ft.addFlow(src, dst)
}

// BenchmarkLMMIncremental measures the per-event solver cost on the 1k-host
// fat-tree: one flow completion plus one flow start, then a re-solve. The
// incremental/full ratio is the payoff of dirty-set selective solving.
func BenchmarkLMMIncremental(b *testing.B) {
	const shape = "fattree:16x8x8:1x8x8" // 1024 hosts
	patterns := []struct {
		name   string
		random bool
		flows  int
	}{
		{"neighbor1024", false, 1024},
		{"random512", true, 512},
	}
	for _, pat := range patterns {
		setup := func(b *testing.B) *fatTreeBench {
			ft := newFatTreeBench(b, shape)
			for i := 0; i < pat.flows; i++ {
				if pat.random {
					src, dst := ft.randomPair()
					ft.addFlow(src, dst)
				} else {
					ft.addFlow(i, (i+1)%len(ft.hosts))
				}
			}
			ft.sys.SolveFull()
			return ft
		}
		b.Run(pat.name+"/incremental", func(b *testing.B) {
			ft := setup(b)
			// benchgate -counters mode: attach solver counters and report
			// per-churn work; the default run stays uninstrumented (the
			// zero-overhead contract the gate baselines pin).
			var stats lmm.Stats
			if os.Getenv("SMPIGO_BENCH_COUNTERS") != "" {
				ft.sys.Stats = &stats
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.churn(pat.random)
				ft.sys.Solve()
			}
			if ft.sys.Stats != nil && b.N > 0 {
				per := 1 / float64(b.N)
				b.ReportMetric(float64(stats.Components)*per, "components/op")
				b.ReportMetric(float64(stats.DirtyConstraints)*per, "dirtycons/op")
				b.ReportMetric(float64(stats.VarsResolved)*per, "resolved/op")
			}
		})
		b.Run(pat.name+"/full", func(b *testing.B) {
			ft := setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.churn(pat.random)
				ft.sys.SolveFull()
			}
		})
		if !pat.random {
			continue
		}
		// random512 is the giant-component case.
		//
		// partial: bounded-staleness intra-component re-solve. eps=1e-3
		// keeps the re-fair region around the churned flow instead of
		// cascading across the whole spine-coupled component (1e-9 would
		// expand to everything and fall back). This is the mode that buys
		// the headline speedup on a giant component.
		b.Run(pat.name+"/partial", func(b *testing.B) {
			ft := setup(b)
			ft.sys.SetRateTolerance(3e-2)
			var stats lmm.Stats
			if os.Getenv("SMPIGO_BENCH_COUNTERS") != "" {
				ft.sys.Stats = &stats
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft.churn(pat.random)
				ft.sys.Solve()
			}
			if ft.sys.Stats != nil && b.N > 0 {
				per := 1 / float64(b.N)
				b.ReportMetric(float64(stats.PartialRefills)*per, "partialrefills/op")
				b.ReportMetric(float64(stats.PartialVarsSkipped)*per, "skipped/op")
				b.ReportMetric(float64(stats.PartialFallbacks)*per, "fallbacks/op")
			}
		})
	}

	// pods8x64: the multi-component counterpart to random512 — 8 independent
	// 64-flow pods, each pod's pairs drawn from one leaf switch's 16 hosts so
	// D-mod-k keeps every route under that leaf and the pods never couple.
	// Churning one flow in every pod per event dirties 8 disjoint 64-var
	// components at once, so the entry measures multi-component churn.
	const (
		pods        = 8
		flowsPerPod = 64
		hostsPerPod = 16
	)
	b.Run("pods8x64/incremental", func(b *testing.B) {
		ft := newFatTreeBench(b, shape)
		podVars := make([][]*lmm.Variable, pods)
		for p := range podVars {
			podVars[p] = make([]*lmm.Variable, flowsPerPod)
			for i := range podVars[p] {
				src, dst := ft.podPair(p, hostsPerPod)
				podVars[p][i] = ft.newFlow(src, dst)
			}
		}
		ft.sys.SolveFull()
		var stats lmm.Stats
		if os.Getenv("SMPIGO_BENCH_COUNTERS") != "" {
			ft.sys.Stats = &stats
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for p := range podVars {
				j := ft.rng.Intn(flowsPerPod)
				ft.sys.RemoveVariable(podVars[p][j])
				src, dst := ft.podPair(p, hostsPerPod)
				podVars[p][j] = ft.newFlow(src, dst)
			}
			ft.sys.Solve()
		}
		if ft.sys.Stats != nil && b.N > 0 {
			b.ReportMetric(float64(stats.Components)/float64(b.N), "components/op")
		}
	})
}

// podPair draws a random ordered pair of distinct hosts from pod p's leaf
// (hosts [p*hostsPerPod, (p+1)*hostsPerPod)).
func (ft *fatTreeBench) podPair(p, hostsPerPod int) (int, int) {
	base := p * hostsPerPod
	src := base + ft.rng.Intn(hostsPerPod)
	dst := base + ft.rng.Intn(hostsPerPod-1)
	if dst >= src {
		dst++
	}
	return src, dst
}
