//photon:deterministic — generated scenes are identical for a given family, size, and seed;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package scenegen is the seed-parameterized procedural scene generator:
// it manufactures deterministic *families* of simulation-ready geometry —
// room grids with doorways, furniture clutter at controllable occlusion
// density, light arrays with varying collimation, mirror-heavy halls, and
// degenerate/adversarial layouts — so the conformance matrices, fuzz
// targets and benchmarks can exercise the light-transport core over an
// unbounded scene space instead of the three hand-built rooms.
//
// A scene is named by a spec string:
//
//	gen:<family>/seed=<n>/<param>=<value>/...
//
// e.g. gen:office/seed=42/rooms=2/density=0.7. Parsing is strict (unknown
// keys, duplicate keys, out-of-range or non-finite values are errors), and
// Spec.String returns the canonical form — seed first, then every family
// parameter in declared order — so equivalent specs collapse to one name.
//
// Determinism contract: every random choice the generator makes is drawn
// from a private substream that is a pure function of (seed, element index),
// the same splitmix-hash construction as core.PhotonStream. The same spec
// therefore always builds the bit-identical scene, regardless of build
// order, platform or prior generator calls — which is what lets the
// differential-conformance harness pin generated scenes with golden
// fingerprints.
package scenegen

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/brdf"
	"repro/internal/geom"
	"repro/internal/rng"
)

// Prefix marks a scene name as a generator spec.
const Prefix = "gen:"

// IsSpec reports whether name is a generator spec (has the gen: prefix).
func IsSpec(name string) bool { return strings.HasPrefix(name, Prefix) }

// Spec is a parsed generator spec: a family plus its fully-populated
// parameter set. Build(spec) is a pure function.
type Spec struct {
	Family string
	Seed   int64
	// Params holds every parameter the family declares (defaults filled in
	// by Parse), keyed by parameter name.
	Params map[string]float64
}

// paramDef declares one family parameter with its default and valid range.
// Integer parameters reject fractional values at parse time so that two
// canonical names can never build the same geometry.
type paramDef struct {
	name     string
	def      float64
	min, max float64
	integer  bool
}

// family couples a parameter schema with its geometry builder. Builders may
// assume every parameter is present and in range; they must draw all
// randomness from sub(seed, kind, idx) substreams.
type family struct {
	name   string
	params []paramDef
	build  func(seed int64, p map[string]float64, b *Builder)
}

// Families lists the generator family names in presentation order.
func Families() []string {
	out := make([]string, len(families))
	for i, f := range families {
		out[i] = f.name
	}
	return out
}

func familyByName(name string) (*family, bool) {
	for i := range families {
		if families[i].name == name {
			return &families[i], true
		}
	}
	return nil, false
}

// Parse parses a gen: spec string. Missing parameters take their family
// defaults; unknown families or keys, duplicate keys, malformed, non-finite,
// fractional-integer or out-of-range values are errors. Any spec Parse
// accepts, Build can turn into a valid closed scene — the invariant
// FuzzSceneGen hammers.
func Parse(name string) (Spec, error) {
	if !IsSpec(name) {
		return Spec{}, fmt.Errorf("scenegen: spec %q does not start with %q", name, Prefix)
	}
	parts := strings.Split(name[len(Prefix):], "/")
	fam, ok := familyByName(parts[0])
	if !ok {
		return Spec{}, fmt.Errorf("scenegen: unknown family %q (have %s)",
			parts[0], strings.Join(Families(), ", "))
	}
	spec := Spec{Family: fam.name, Seed: 1, Params: map[string]float64{}}
	for _, p := range fam.params {
		spec.Params[p.name] = p.def
	}
	seen := map[string]bool{}
	for _, seg := range parts[1:] {
		key, val, found := strings.Cut(seg, "=")
		if !found || key == "" || val == "" {
			return Spec{}, fmt.Errorf("scenegen: segment %q is not key=value", seg)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("scenegen: duplicate key %q", key)
		}
		seen[key] = true
		if key == "seed" {
			s, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("scenegen: bad seed %q: %v", val, err)
			}
			spec.Seed = s
			continue
		}
		def, ok := paramByName(fam, key)
		if !ok {
			return Spec{}, fmt.Errorf("scenegen: family %q has no parameter %q (have seed, %s)",
				fam.name, key, strings.Join(paramNames(fam), ", "))
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return Spec{}, fmt.Errorf("scenegen: bad value %q for %s", val, key)
		}
		if v < def.min || v > def.max {
			return Spec{}, fmt.Errorf("scenegen: %s=%v out of range [%s, %s]",
				key, v, formatParam(def.min), formatParam(def.max))
		}
		if def.integer && v != math.Trunc(v) {
			return Spec{}, fmt.Errorf("scenegen: %s=%v must be an integer", key, v)
		}
		spec.Params[key] = v
	}
	return spec, nil
}

func paramByName(f *family, name string) (paramDef, bool) {
	for _, p := range f.params {
		if p.name == name {
			return p, true
		}
	}
	return paramDef{}, false
}

func paramNames(f *family) []string {
	out := make([]string, len(f.params))
	for i, p := range f.params {
		out[i] = p.name
	}
	return out
}

func formatParam(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// String returns the canonical spec: gen:family/seed=N followed by every
// family parameter in declared order. Parse(spec.String()) == spec, and two
// specs describing the same scene stringify identically — the canonical
// string is the generated Scene's Name, and what answer files store.
func (s Spec) String() string {
	var sb strings.Builder
	sb.WriteString(Prefix)
	sb.WriteString(s.Family)
	fmt.Fprintf(&sb, "/seed=%d", s.Seed)
	if fam, ok := familyByName(s.Family); ok {
		for _, p := range fam.params {
			fmt.Fprintf(&sb, "/%s=%s", p.name, formatParam(s.Params[p.name]))
		}
	}
	return sb.String()
}

// Built is the output of the generator: everything a scene container above
// this package needs to assemble a simulation-ready scene.
type Built struct {
	// Name is the canonical spec string.
	Name      string
	Patches   []geom.Patch
	Materials []brdf.Material
}

// Build generates the geometry for a parsed spec. For any spec Parse
// accepts, Build returns a closed scene with at least one luminaire, valid
// materials, and finite non-degenerate patches.
func Build(spec Spec) (*Built, error) {
	fam, ok := familyByName(spec.Family)
	if !ok {
		return nil, fmt.Errorf("scenegen: unknown family %q", spec.Family)
	}
	for _, p := range fam.params {
		v, ok := spec.Params[p.name]
		if !ok {
			return nil, fmt.Errorf("scenegen: spec is missing parameter %q", p.name)
		}
		if v < p.min || v > p.max || (p.integer && v != math.Trunc(v)) {
			return nil, fmt.Errorf("scenegen: parameter %s=%v invalid", p.name, v)
		}
	}
	b := NewBuilder()
	fam.build(spec.Seed, spec.Params, b)
	return &Built{Name: spec.String(), Patches: b.Patches(), Materials: b.Materials()}, nil
}

// Substream element kinds: each structural element type of a family draws
// from its own block of substream indices, so adding elements of one kind
// never perturbs another kind's choices.
const (
	subRoom = iota << 24
	subDoor
	subFurniture
	subLight
	subMirror
	subSliver
	subStack
	subSpan
	subTile
)

// sub returns the private random substream for element (kind, idx) of a
// scene with the given seed. This mirrors core.PhotonStream's
// splitmix-style hash of (seed, index) — the generator-side half of the
// determinism contract: element identity, not construction order, decides
// the draw.
func sub(seed int64, kind, idx int) *rng.Source {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(int64(kind)+int64(idx))
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return rng.NewFromState(z ^ (z >> 31))
}

// Fingerprint returns an order-sensitive FNV-1a hash over every patch's
// defining floats and material indices. It pins the *generator's* output
// independently of the physics: golden-corpus drift in this hash means the
// geometry changed; drift only in the forest fingerprint means the
// light transport changed.
func (bu *Built) Fingerprint() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	u64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (v >> s & 0xFF)) * prime
		}
	}
	f := func(v float64) { u64(math.Float64bits(v)) }
	for i := range bu.Patches {
		p := &bu.Patches[i]
		for _, v := range [...]float64{
			p.Origin.X, p.Origin.Y, p.Origin.Z,
			p.EdgeS.X, p.EdgeS.Y, p.EdgeS.Z,
			p.EdgeT.X, p.EdgeT.Y, p.EdgeT.Z,
			p.Emission.X, p.Emission.Y, p.Emission.Z,
			p.Collimation,
		} {
			f(v)
		}
		u64(uint64(p.Material))
	}
	return h
}
