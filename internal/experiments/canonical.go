package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"smpigo/internal/dynamics"
	"smpigo/internal/placement"
	"smpigo/internal/smpi"
	"smpigo/internal/topology"
)

// keyed is an entry of one of the grid's closed vocabularies (ops,
// backends, models, clusters), looked up by its name.
type keyed interface{ key() string }

// names lists a vocabulary's entry names in table order.
func names[T keyed](table []T) []string {
	out := make([]string, len(table))
	for i, e := range table {
		out[i] = e.key()
	}
	return out
}

// find returns the entry named v (trimmed, case-insensitive).
func find[T keyed](table []T, v string) (T, bool) {
	v = strings.ToLower(strings.TrimSpace(v))
	for _, e := range table {
		if e.key() == v {
			return e, true
		}
	}
	var zero T
	return zero, false
}

// lookup is find with an error naming the axis kind and every valid value.
func lookup[T keyed](kind string, table []T, v string) (T, error) {
	e, ok := find(table, v)
	if !ok {
		return e, fmt.Errorf("unknown %s %q (want %s)", kind, v, strings.Join(names(table), ", "))
	}
	return e, nil
}

// OpNames lists the operations a grid can sweep.
func OpNames() []string { return names(gridOps) }

// BackendNames lists the grid's timing backends.
func BackendNames() []string { return names(gridBackends) }

// ModelNames lists the analytical point-to-point models; the first is the
// default.
func ModelNames() []string { return names(gridModels) }

// normalize validates every axis of the spec and respells it canonically —
// trimmed lower-case names, placement aliases and dynamics schedules in
// their canonical form, spelled-out defaults, repeats dropped — keeping the
// caller's order. It is the single definition of what a grid accepts:
// expand crosses the normalized axes in this order, and Canonicalize only
// sorts them.
func (spec GridSpec) normalize() (GridSpec, error) {
	c := spec
	op, err := lookup("op", gridOps, spec.Op)
	if err != nil {
		return GridSpec{}, fmt.Errorf("grid: %w", err)
	}
	c.Op = op.name
	if op.fixedProcs != 0 {
		// The op ignores the procs axis, so every procs list is equivalent.
		c.Procs = []int{op.fixedProcs}
	} else {
		c.Procs = dedupe(spec.Procs)
		for _, procs := range c.Procs {
			if procs < 2 {
				return GridSpec{}, fmt.Errorf("grid: process count %d below 2", procs)
			}
		}
	}
	if len(c.Procs) == 0 {
		return GridSpec{}, fmt.Errorf("grid: need at least one process count")
	}

	c.Sizes = dedupe(spec.Sizes)
	for _, size := range c.Sizes {
		if size <= 0 {
			return GridSpec{}, fmt.Errorf("grid: non-positive size %d", size)
		}
		if op.checkSize != nil {
			if err := op.checkSize(size); err != nil {
				return GridSpec{}, fmt.Errorf("grid: %s: %w", op.name, err)
			}
		}
	}
	if len(c.Sizes) == 0 {
		return GridSpec{}, fmt.Errorf("grid: need at least one size")
	}

	c.Backends = nil
	analytical, emulated := false, false
	for _, name := range spec.Backends {
		b, err := lookup("backend", gridBackends, name)
		if err != nil {
			return GridSpec{}, fmt.Errorf("grid: %w", err)
		}
		c.Backends = append(c.Backends, b.name)
		analytical = analytical || b.analytical
		emulated = emulated || !b.analytical
	}
	c.Backends = dedupe(c.Backends)
	if len(c.Backends) == 0 {
		return GridSpec{}, fmt.Errorf("grid: need at least one backend")
	}

	// Models only cross with the analytical backend; without it they are
	// inert and drop out. With it, the implicit default becomes explicit.
	c.Models = nil
	if analytical {
		for _, name := range spec.Models {
			m, err := lookup("model", gridModels, name)
			if err != nil {
				return GridSpec{}, fmt.Errorf("grid: %w", err)
			}
			c.Models = append(c.Models, m.name)
		}
		if len(c.Models) == 0 {
			c.Models = ModelNames()[:1]
		}
		c.Models = dedupe(c.Models)
	}

	c.Topologies = nil
	for _, topo := range spec.Topologies {
		if topo = strings.ToLower(strings.TrimSpace(topo)); topo != "" {
			if _, err := platformSpec(topo); err != nil {
				return GridSpec{}, err
			}
			c.Topologies = append(c.Topologies, topo)
		}
	}
	c.Topologies = dedupe(c.Topologies)
	if len(c.Topologies) > 0 {
		c.Platform = "" // ignored when a topology axis is present
	} else {
		if c.Platform = strings.ToLower(strings.TrimSpace(spec.Platform)); c.Platform == "" {
			c.Platform = clusters[0].name
		}
		if _, err := platformSpec(c.Platform); err != nil {
			return GridSpec{}, err
		}
	}

	c.Placements = nil
	for _, pl := range spec.Placements {
		canonical, err := placement.Normalize(pl)
		if err != nil {
			return GridSpec{}, fmt.Errorf("grid: %w", err)
		}
		c.Placements = append(c.Placements, canonical)
	}
	c.Placements = dedupe(c.Placements)

	algos, err := smpi.ParseAlgorithms(spec.Collectives)
	if err != nil {
		return GridSpec{}, fmt.Errorf("grid: %w", err)
	}
	// Summary renders the non-default fields as space-separated "op=algo"
	// pairs in a fixed field order; re-joined with commas it round-trips
	// through ParseAlgorithms, making it the canonical spelling ("auto"
	// becomes every collective pinned to auto, "default" becomes "").
	c.Collectives = strings.ReplaceAll(algos.Summary(), " ", ",")

	c.Dynamics = nil
	for _, d := range spec.Dynamics {
		sched, err := dynamics.Parse(d)
		if err != nil {
			return GridSpec{}, fmt.Errorf("grid: dynamics %q: %w", d, err)
		}
		if sched == nil {
			c.Dynamics = append(c.Dynamics, "")
			continue
		}
		if emulated {
			return GridSpec{}, fmt.Errorf("grid: dynamics require analytical backends only, got %s", strings.Join(c.Backends, ", "))
		}
		c.Dynamics = append(c.Dynamics, sched.String())
	}
	c.Dynamics = dedupe(c.Dynamics)
	if len(c.Dynamics) == 1 && c.Dynamics[0] == "" {
		c.Dynamics = nil // an explicit all-static axis is no axis
	}

	if !(c.RateTolerance >= 0 && c.RateTolerance < 1) {
		return GridSpec{}, fmt.Errorf("grid: rate tolerance %g outside [0,1)", c.RateTolerance)
	}
	if err := checkShard(c.ShardIndex, c.ShardCount); err != nil {
		return GridSpec{}, err
	}
	if c.ShardCount == 1 {
		c.ShardIndex, c.ShardCount = 0, 0 // 1 shard of 1 is the whole grid
	}
	return c, nil
}

// dedupe returns a copy of s without repeats, keeping first occurrences in
// order.
func dedupe[T comparable](s []T) []T {
	var out []T
	seen := make(map[T]bool, len(s))
	for _, v := range s {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// Canonicalize returns the spec's canonical form: two specs that expand to
// the same set of simulations — differing only in axis order, duplicate
// entries, case, spelled-out defaults, or alias spellings ("round-robin"
// for "rr", "0.002s" for "2ms" in a dynamics schedule) — canonicalize to
// the same value. It is normalize (which validates every axis) followed by
// sorting each axis, so a canonical spec expands in a fixed order
// regardless of how the caller listed its axes.
//
// This is what makes result caching by fingerprint-input sound end to end:
// the campaign service runs the canonical spec, so its cache key (see
// CampaignKey) and the jobs it actually executes are derived from one
// normalized value — semantically equal requests hit the same cache entry
// AND would have produced byte-identical summaries.
//
// The batch CLI, by contrast, runs the normalized spec in the caller's
// axis order: the job set is the same, but the job order (and so the
// fingerprint, which hashes jobs in order) follows the command line.
// Sorting there would reorder the jobs of existing command lines and move
// their pinned fingerprints (the implicit-routing golden reorders its
// topology axis), so a CLI fingerprint equals the served one only when the
// command line lists every axis in canonical order.
func (spec GridSpec) Canonicalize() (GridSpec, error) {
	c, err := spec.normalize()
	if err != nil {
		return GridSpec{}, err
	}
	slices.Sort(c.Procs)
	slices.Sort(c.Sizes)
	slices.Sort(c.Backends)
	slices.Sort(c.Models)
	slices.Sort(c.Topologies)
	slices.Sort(c.Placements)
	slices.Sort(c.Dynamics)
	return c, nil
}

// CampaignKey returns the campaign's fingerprint-input: a stable hash of
// the canonicalized spec plus the campaign seed. Identical (spec, seed)
// pairs produce bit-identical summaries at any -parallel setting (the
// repo's determinism contract), so a result cache keyed by this value can
// serve hits without re-simulating and provably never serves a wrong
// answer. Stats stays in the key because it changes what the summary
// contains (per-job counter maps), even though it never moves the
// fingerprint.
func (spec GridSpec) CampaignKey(seed uint64) (string, error) {
	c, err := spec.Canonicalize()
	if err != nil {
		return "", err
	}
	blob, err := json.Marshal(struct {
		Spec GridSpec `json:"spec"`
		Seed uint64   `json:"seed"`
	}{c, seed})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob)), nil
}

// platformSpec resolves a platform-axis name without building it: nil for
// one of the paper's clusters, else the topology preset or shape string.
func platformSpec(name string) (topology.Spec, error) {
	if _, ok := find(clusters, name); ok {
		return nil, nil
	}
	spec, err := topology.ParseSpec(name)
	if err != nil {
		return nil, fmt.Errorf("grid: unknown platform %q (want %s, or a topology: %w)",
			name, strings.Join(names(clusters), ", "), err)
	}
	return spec, nil
}
