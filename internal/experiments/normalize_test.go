package experiments

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"smpigo/internal/campaign"
	"smpigo/internal/core"
)

// TestCLIAndServiceAgree runs respelled specs the way the batch CLI does
// (GridCampaign on the spec as given) and the way the service does
// (GridCampaign on the canonical spec). Both paths must accept or refuse
// the same specs and, when they run, hold the same set of jobs: only the
// job order may differ, because the CLI keeps the caller's axis order.
func TestCLIAndServiceAgree(t *testing.T) {
	base := GridSpec{
		Op:       "alltoall",
		Procs:    []int{4},
		Sizes:    []int64{4 * core.KiB},
		Backends: []string{"surf"},
	}
	for _, tc := range []struct {
		name   string
		mutate func(*GridSpec)
	}{
		{"mixed-case topology", func(s *GridSpec) { s.Topologies = []string{"Fattree16"} }},
		{"pingpong without procs", func(s *GridSpec) { s.Op, s.Procs = "pingpong", nil }},
		{"padded backend", func(s *GridSpec) { s.Backends = []string{" surf "} }},
		{"placement alias", func(s *GridSpec) { s.Placements = []string{"round-robin", "block"} }},
		{"padded op and model", func(s *GridSpec) { s.Op, s.Models = " Scatter", []string{"Ideal ", "piecewise"} }},
		{"repeated axes", func(s *GridSpec) { s.Procs, s.Sizes = []int{8, 4, 8}, []int64{2048, 1024, 2048} }},
		{"unknown topology", func(s *GridSpec) { s.Topologies = []string{"mesh16"} }},
		{"procs below two", func(s *GridSpec) { s.Procs = []int{1} }},
		{"allreduce odd payload", func(s *GridSpec) { s.Op, s.Sizes = "allreduce", []int64{100} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := env(t)
			spec := base
			tc.mutate(&spec)
			cli, cliErr := e.GridCampaign(spec)
			canonical, canonErr := spec.Canonicalize()
			var served []string
			if canonErr == nil {
				sum, err := e.GridCampaign(canonical)
				if err != nil {
					t.Fatalf("canonical spec %+v refused: %v", canonical, err)
				}
				if err := sum.Err(); err != nil {
					t.Fatal(err)
				}
				served = jobIDs(sum.Results)
			}
			if (cliErr == nil) != (canonErr == nil) {
				t.Fatalf("CLI err = %v, Canonicalize err = %v: one path runs a spec the other refuses", cliErr, canonErr)
			}
			if cliErr != nil {
				return
			}
			if err := cli.Err(); err != nil {
				t.Fatal(err)
			}
			if got := jobIDs(cli.Results); !slices.Equal(got, served) {
				t.Errorf("CLI jobs %v, service jobs %v", got, served)
			}
		})
	}
}

// jobIDs returns the sorted job IDs of a summary's results.
func jobIDs(results []campaign.Result) []string {
	ids := make([]string, len(results))
	for i, r := range results {
		ids[i] = r.ID
	}
	slices.Sort(ids)
	return ids
}

// FuzzGridSpec feeds JSON specs through Canonicalize and Jobs and checks
// that neither panics, that Canonicalize is idempotent and keeps the
// campaign key, and that expand accepts exactly the specs Canonicalize
// accepts.
func FuzzGridSpec(f *testing.F) {
	for _, seed := range []string{
		`{"op":"alltoall","procs":[32],"sizes":[65536],"backends":["surf"],"topologies":["fattree:16x8x8:1x8x8"]}`,
		`{"op":" PingPong ","sizes":[1024,1024],"backends":["SURF","openmpi"],"models":["ideal","Piecewise"]}`,
		`{"op":"allreduce","procs":[4,2,4],"sizes":[12],"backends":["surf"]}`,
		`{"op":"bcast","procs":[8],"sizes":[1],"backends":["mpich2"],"dynamics":["none","@1ms link a scale 0.5"]}`,
		`{"op":"scatter","procs":[4],"sizes":[64],"backends":["surf"],"placements":["round-robin","rr"],"collectives":"auto","shard_index":1,"shard_count":2}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec GridSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return
		}
		canonical, canonErr := spec.Canonicalize()
		if canonErr == nil && gridSize(canonical, 1<<12) == 1<<12 {
			return // a valid but huge grid: expanding it only costs memory
		}
		_, expandErr := spec.Jobs()
		if (canonErr == nil) != (expandErr == nil) {
			t.Fatalf("Canonicalize err = %v, expand err = %v", canonErr, expandErr)
		}
		if canonErr != nil {
			return
		}
		again, err := canonical.Canonicalize()
		if err != nil {
			t.Fatalf("canonical spec %+v refused: %v", canonical, err)
		}
		if !reflect.DeepEqual(again, canonical) {
			t.Fatalf("Canonicalize not idempotent:\n  once  %+v\n  twice %+v", canonical, again)
		}
		k1, err1 := spec.CampaignKey(1)
		k2, err2 := canonical.CampaignKey(1)
		if err1 != nil || err2 != nil || k1 != k2 {
			t.Fatalf("campaign key %q (%v) for the spec, %q (%v) for its canonical form", k1, err1, k2, err2)
		}
	})
}

// gridSize is the number of points a normalized spec expands to before
// shard slicing, saturating at limit.
func gridSize(c GridSpec, limit int) int {
	n := 1
	for _, l := range []int{len(c.Procs), len(c.Sizes), len(c.Backends),
		len(c.Topologies), len(c.Dynamics), len(c.Placements), len(c.Models)} {
		if n *= max(l, 1); n > limit {
			return limit
		}
	}
	return n
}
