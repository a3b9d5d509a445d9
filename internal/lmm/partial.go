package lmm

import (
	"math"
	"slices"
)

// Bounded-staleness partial re-fill (SetRateTolerance > 0).
//
// A perturbation inside a giant component rarely moves every member's rate:
// removing one flow reshapes the shares on the links it crossed, those
// changes ripple to the co-flows' other links, and the ripple decays as it
// spreads. The partial re-fill exploits that decay. It grows a *region* —
// a worklist of constraints whose allocations must be recomputed — outward
// from the directly-perturbed members, and stops where the recomputed rates
// move by less than eps: variables beyond the frontier keep their published
// allocation (stale by construction, by at most eps at the boundary).
//
// Correctness of the frontier: every Shared constraint crossed by a region
// variable participates in the region solve, with the frozen variables'
// published rates pre-charged against its capacity. Progressive filling
// then never hands the region more than each constraint's true remaining
// capacity, so feasibility is exact — only max-min pinning drifts, which is
// precisely the contract eps buys. Conservation in surf is untouched:
// drains always record the rate actually flown, never a recomputed one.
//
// Determinism: region membership is tracked with epoch marks, the wave loop
// sorts members by creation serial before every fill, and expansion scans
// variables in that sorted order, so the result is a pure function of the
// system state and eps — independent of dirty-set traversal and of the
// worker count.

// materially reports whether a rate moved by more than eps, relative to the
// larger magnitude (so brand-new variables, prev == 0, always count).
func materially(prev, next, eps float64) bool {
	d := math.Abs(next - prev)
	if d == 0 {
		return false
	}
	return d > eps*math.Max(math.Abs(prev), math.Abs(next))
}

// partialRefill attempts a bounded-staleness re-fill of one component.
// It reports false — leaving every member untouched, values reset by the
// caller's full solve — when the region outgrows half the component (the
// ripple did not decay, so a full solve is cheaper) or fails to converge
// within partialMaxWaves.
func (s *System) partialRefill(c *component) bool {
	sc := &s.scratch
	epoch := s.epoch
	regionVars := sc.regionVars[:0]
	regionCons := sc.regionCons[:0]

	// addVar admits a variable to the region, snapshotting its published
	// rate for the staleness test and registering every Shared constraint
	// it crosses (those constraints cap the region solve even when their
	// other variables stay frozen). Each constraint's frozen-frontier
	// remainder is maintained incrementally: computed once over the full
	// attachment list at registration, then credited back per admission —
	// so the waves never rescan a hot spine link's hundred-flow list.
	addVar := func(v *Variable) {
		if v.rmark == epoch {
			return
		}
		v.rmark = epoch
		v.prev = v.Value
		regionVars = append(regionVars, v)
		for _, cc := range v.cons {
			if cc.Policy != Shared {
				continue
			}
			if cc.rmark != epoch {
				cc.rmark = epoch
				regionCons = append(regionCons, cc)
				rem := cc.Capacity
				for _, u := range cc.vars {
					if u.rmark != epoch {
						rem -= u.Value
					}
				}
				cc.partialRem = rem
			} else {
				cc.partialRem += v.prev
			}
		}
	}
	// pullCons admits a constraint with all of its variables: its capacity
	// must be re-shared, so every crossing rate is up for recomputation.
	pullCons := func(cc *Constraint) {
		if cc.rpull == epoch {
			return
		}
		cc.rpull = epoch
		if cc.rmark != epoch {
			cc.rmark = epoch
			regionCons = append(regionCons, cc)
			rem := cc.Capacity
			for _, u := range cc.vars {
				if u.rmark != epoch {
					rem -= u.Value
				}
			}
			cc.partialRem = rem
		}
		for _, v := range cc.vars {
			addVar(v)
		}
	}

	// Seed from the directly-perturbed members stamped by Solve: a dirty
	// Shared constraint must re-share all its traffic, and a dirty
	// variable's new weight/bound (or fresh arrival) perturbs every
	// constraint it crosses.
	for _, cc := range c.cons {
		if cc.modMark == epoch {
			pullCons(cc)
		}
	}
	for _, v := range c.vars {
		if v.modMark == epoch {
			addVar(v)
			for _, cc := range v.cons {
				if cc.Policy == Shared {
					pullCons(cc)
				}
			}
		}
	}

	limit := len(c.vars) / 2
	for wave := 0; ; wave++ {
		if len(regionVars) > limit || wave == partialMaxWaves {
			sc.regionVars, sc.regionCons = regionVars[:0], regionCons[:0]
			if st := s.Stats; st != nil {
				st.PartialFallbacks++
			}
			return false
		}
		slices.SortFunc(regionCons, func(a, b *Constraint) int { return a.id - b.id })
		slices.SortFunc(regionVars, func(a, b *Variable) int { return a.id - b.id })
		s.solveRegion(regionCons, regionVars)

		// Expansion: any region variable whose rate moved materially
		// invalidates the shares on its constraints, so those constraints
		// are pulled in fully and the region re-filled. The loop terminates
		// because the region only grows and is bounded by the component.
		grew := false
		for _, v := range regionVars {
			if !materially(v.prev, v.Value, s.rateTol) {
				continue
			}
			for _, cc := range v.cons {
				if cc.Policy == Shared && cc.rpull != epoch {
					pullCons(cc)
					grew = true
				}
			}
		}
		if !grew {
			break
		}
	}

	if st := s.Stats; st != nil {
		st.PartialRefills++
		st.VarsResolved += uint64(len(regionVars))
		st.PartialVarsSkipped += uint64(len(c.vars) - len(regionVars))
	}
	c.partial = append(c.partial[:0], regionVars...)
	c.resolved = c.partial
	sc.regionVars, sc.regionCons = regionVars[:0], regionCons[:0]
	return true
}

// solveRegion runs progressive filling over a region of a component. It
// differs from solveComponent only in initialization: each constraint's
// capacity starts from the incrementally-maintained frozen-frontier
// remainder (capacity minus the published rates of out-of-region
// variables), and the live lists are rebuilt from the region variables —
// O(region degree) per wave, never a walk of a constraint's full
// attachment list. The fill loop itself is shared, so within the region
// every floating-point operation follows the same compaction discipline a
// full solve uses.
func (s *System) solveRegion(cons []*Constraint, vars []*Variable) {
	sc := &s.scratch
	for _, c := range cons {
		c.active = false
		c.liveVars = c.liveVars[:0]
		rem := c.partialRem
		if rem < 0 {
			// Frozen frontier: the previous solve left the stale rates
			// feasible, so the remainder only goes negative by rounding
			// drift; floor it.
			rem = 0
		}
		c.remaining = rem
	}
	actVars := sc.actVars[:0]
	for _, v := range vars {
		v.fixed = v.Weight == 0
		v.Value = 0
		if v.fixed {
			continue
		}
		actVars = append(actVars, v)
		for _, cc := range v.cons {
			if cc.Policy == Shared {
				cc.liveVars = append(cc.liveVars, v)
			}
		}
	}
	actCons := sc.actCons[:0]
	for _, c := range cons {
		actCons = append(actCons, c)
	}
	actCons, actVars = fill(actCons, actVars)
	sc.actCons, sc.actVars = actCons[:0], actVars[:0]
}
