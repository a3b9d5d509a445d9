package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"smpigo/internal/platform"
)

// Metrics are structural properties of a topology, computed analytically
// from the spec (no platform build needed).
type Metrics struct {
	// Hosts is the number of compute nodes.
	Hosts int
	// Links is the number of directed network links the builder emits.
	Links int
	// Diameter is the maximum route length between two hosts, in links
	// traversed (not switch hops).
	Diameter int
	// BisectionBandwidth is the aggregate one-way bandwidth in bytes/s
	// crossing the topology's balanced structural cut: the top-level split
	// for fat-trees, a cut across the largest dimension for tori, and a
	// group-balanced cut for dragonflies.
	BisectionBandwidth float64
}

// Spec is the topology-side view of platform.Spec with structural metrics.
type Spec interface {
	platform.Spec
	Metrics() Metrics
}

// topoInfo converts a spec's structural metrics into the platform-level
// annotation that collective auto-selection (smpi) and rank placement
// (package placement) key on. Builders attach it to Platform.Topo.
func topoInfo(kind string, m Metrics) *platform.TopoInfo {
	return &platform.TopoInfo{
		Kind:               kind,
		Hosts:              m.Hosts,
		Links:              m.Links,
		Diameter:           m.Diameter,
		BisectionBandwidth: m.BisectionBandwidth,
	}
}

// Hops returns the number of links a message between the two hosts
// traverses — the per-topology hop count the structural tests check against
// Metrics.Diameter.
func Hops(p *platform.Platform, a, b *platform.Host) int {
	return len(p.Route(a, b).Links)
}

// presets maps preset names to spec constructors. Populated at init time by
// the per-topology files, read-only afterwards.
var presets = map[string]func() Spec{}

func registerPreset(name string, build func() Spec) {
	if _, dup := presets[name]; dup {
		panic(fmt.Sprintf("topology: preset %q registered twice", name))
	}
	presets[name] = build
}

// PresetNames lists the built-in topology presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Preset returns the named preset spec, or an error naming the known ones.
func Preset(name string) (Spec, error) {
	build, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("topology: unknown preset %q (have %s)",
			name, strings.Join(PresetNames(), ", "))
	}
	return build(), nil
}

// ParseSpec resolves a topology description string: either a preset name
// (see PresetNames) or a compact shape grammar —
//
//	fattree:<down ports per level>:<up ports per level>   fattree:4x4:1x4
//	torus:<dims>                                          torus:4x4x4
//	dragonfly:<groups>x<routers>x<hosts per router>       dragonfly:9x4x2
//
// Fat-tree port lists accept "x" or "," as separator; prefer the x form in
// comma-separated flag lists. Shape strings inherit the corresponding
// preset's speeds and link parameters.
func ParseSpec(s string) (Spec, error) {
	if build, ok := presets[s]; ok {
		return build(), nil
	}
	kind, rest, found := strings.Cut(s, ":")
	if !found {
		return nil, fmt.Errorf("topology: unknown spec %q (want a preset — %s — or fattree:..., torus:..., dragonfly:...)",
			s, strings.Join(PresetNames(), ", "))
	}
	switch kind {
	case "fattree":
		return parseFatTree(rest)
	case "torus":
		return parseTorus(rest)
	case "dragonfly":
		return parseDragonfly(rest)
	default:
		return nil, fmt.Errorf("topology: unknown kind %q in spec %q (want fattree, torus, dragonfly)", kind, s)
	}
}

// specName derives a platform name from a shape string: "fattree:4x4:1x4"
// becomes "fattree-4-4-1-4" so host and link names stay identifier-like.
func specName(kind, rest string) string {
	return kind + "-" + specNameReplacer.Replace(rest)
}

var specNameReplacer = strings.NewReplacer(":", "-", ",", "-", "x", "-")

func parseIntList(s, sep string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, sep) {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func joinInts(vs []int, sep string) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, sep)
}

func product(vs []int) int {
	n := 1
	for _, v := range vs {
		n *= v
	}
	return n
}
