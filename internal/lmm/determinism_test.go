package lmm

import (
	"math"
	"math/rand"
	"testing"
)

// churnOp is one step of a pre-generated churn schedule: the same ops are
// applied to every System under comparison, so any cross-system divergence
// is the solver's fault, never the schedule's.
type churnOp struct {
	pod    int
	remove int // index into the pod's live list
	weight float64
	bound  float64
	route  []int // constraint indices within the pod
}

// TestSolveDeterministic drives identical churn through two independently
// built systems and asserts bit-identical allocations and Resolved()
// lengths after every solve, in exact mode and in bounded-staleness mode
// (whose region algorithm must be just as much a pure function of the
// mutation history). The "pods" topology — independent components churned
// together — dirties several components per solve, so the collect, solve
// and publish phases all see multi-component input.
func TestSolveDeterministic(t *testing.T) {
	const (
		pods       = 8
		consPerPod = 6
		varsPerPod = 16
		steps      = 50
	)

	// Generate the schedule once.
	rng := rand.New(rand.NewSource(42))
	script := make([][]churnOp, steps)
	for i := range script {
		ops := make([]churnOp, pods)
		for p := range ops {
			hops := 1 + rng.Intn(3)
			route := rng.Perm(consPerPod)[:hops]
			bound := math.Inf(1)
			if rng.Intn(3) == 0 {
				bound = float64(1+rng.Intn(40)) / 4
			}
			ops[p] = churnOp{
				pod:    p,
				remove: rng.Intn(varsPerPod),
				weight: []float64{0.5, 1, 1, 2}[rng.Intn(4)],
				bound:  bound,
				route:  route,
			}
		}
		script[i] = ops
	}

	for _, eps := range []float64{0, 1e-3} {
		type instance struct {
			sys  *System
			live [][]*Variable // per pod
			cons [][]*Constraint
		}
		build := func() *instance {
			s := New()
			if eps > 0 {
				s.SetRateTolerance(eps)
			}
			inst := &instance{sys: s}
			seed := rand.New(rand.NewSource(7))
			for p := 0; p < pods; p++ {
				cons := make([]*Constraint, consPerPod)
				for c := range cons {
					cons[c] = s.NewConstraint("c", float64(5+seed.Intn(50)), Shared)
				}
				vars := make([]*Variable, varsPerPod)
				for v := range vars {
					vars[v] = s.NewVariable("v", 1, math.Inf(1))
					hops := 1 + seed.Intn(3)
					for _, h := range seed.Perm(consPerPod)[:hops] {
						s.Attach(vars[v], cons[h])
					}
				}
				inst.cons = append(inst.cons, cons)
				inst.live = append(inst.live, vars)
			}
			s.Solve()
			return inst
		}

		ref, inst := build(), build()
		stats := &Stats{}
		ref.sys.Stats = stats
		for step, ops := range script {
			for _, in := range []*instance{ref, inst} {
				for _, op := range ops {
					old := in.live[op.pod][op.remove]
					in.sys.RemoveVariable(old)
					v := in.sys.NewVariable("v", op.weight, op.bound)
					for _, h := range op.route {
						in.sys.Attach(v, in.cons[op.pod][h])
					}
					in.live[op.pod][op.remove] = v
				}
				in.sys.Solve()
			}
			if got, want := len(inst.sys.Resolved()), len(ref.sys.Resolved()); got != want {
				t.Fatalf("eps %g step %d: resolved %d vars, reference resolved %d", eps, step, got, want)
			}
			for p := 0; p < pods; p++ {
				for j, v := range inst.live[p] {
					if v.Value != ref.live[p][j].Value {
						t.Fatalf("eps %g step %d: pod %d var %d: value %v, reference %v",
							eps, step, p, j, v.Value, ref.live[p][j].Value)
					}
				}
			}
		}
		if stats.Components < uint64(pods)*stats.Solves {
			t.Fatalf("eps %g: %d components over %d solves, want every pod dirtied per solve",
				eps, stats.Components, stats.Solves)
		}
	}
}

// TestRateToleranceValidation pins the eps domain: [0, 1), NaN rejected.
func TestRateToleranceValidation(t *testing.T) {
	s := New()
	if got := s.RateTolerance(); got != 0 {
		t.Fatalf("default eps = %g, want 0", got)
	}
	s.SetRateTolerance(1e-3)
	if got := s.RateTolerance(); got != 1e-3 {
		t.Fatalf("eps = %g, want 1e-3", got)
	}
	for _, bad := range []float64{-1e-9, 1, 2, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetRateTolerance(%v) did not panic", bad)
				}
			}()
			s.SetRateTolerance(bad)
		}()
	}
}
