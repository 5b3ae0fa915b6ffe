package scenegen

import (
	"strconv"
	"testing"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/vecmath"
)

// defaultSpec returns "gen:<family>" — every parameter at its default.
func defaultSpec(family string) string { return Prefix + family }

func TestFamiliesDeclared(t *testing.T) {
	fams := Families()
	if len(fams) < 5 {
		t.Fatalf("want >=5 families, got %v", fams)
	}
}

func TestParseCanonicalRoundTrip(t *testing.T) {
	for _, name := range Families() {
		spec, err := Parse(defaultSpec(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon := spec.String()
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical %q does not parse: %v", canon, err)
		}
		if again.String() != canon {
			t.Fatalf("canonicalization not idempotent: %q -> %q", canon, again.String())
		}
	}
	// Parameter order must not matter: permuted specs collapse to one
	// canonical name and one geometry.
	a, err := Parse("gen:office/seed=42/rooms=2/density=0.7")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("gen:office/density=0.7/rooms=2/seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("permuted specs canonicalize differently: %q vs %q", a.String(), b.String())
	}
	ba, err := Build(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := Build(b)
	if err != nil {
		t.Fatal(err)
	}
	if ba.Fingerprint() != bb.Fingerprint() {
		t.Fatal("permuted specs build different geometry")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"office/seed=1",                  // missing gen: prefix
		"gen:",                           // no family
		"gen:bogus/seed=1",               // unknown family
		"gen:office/rooms",               // not key=value
		"gen:office/rooms=",              // empty value
		"gen:office/=2",                  // empty key
		"gen:office/rooms=2/rooms=3",     // duplicate key
		"gen:office/seed=abc",            // bad seed
		"gen:office/seed=1.5",            // fractional seed
		"gen:office/bogus=1",             // unknown parameter
		"gen:office/rooms=99",            // out of range
		"gen:office/rooms=2.5",           // fractional integer parameter
		"gen:office/density=NaN",         // non-finite
		"gen:office/density=+Inf",        // non-finite
		"gen:grid/patches=1e80",          // out of range
		"gen:lights/collimation=0",       // below SunScale
		"gen:adversarial/slivers=-1",     // negative count
		"gen:office//density=0.5",        // empty segment
		"gen:hall/length=12/mirrors=2.5", // fractional integer parameter
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	spec, err := Parse("gen:office")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 {
		t.Errorf("default seed = %d, want 1", spec.Seed)
	}
	if spec.Params["rooms"] != 2 || spec.Params["density"] != 0.5 {
		t.Errorf("defaults not applied: %+v", spec.Params)
	}
}

// buildScene builds and finalizes a spec into octree-indexed geometry.
func buildScene(t testing.TB, specStr string) (*Built, *geom.Scene) {
	t.Helper()
	spec, err := Parse(specStr)
	if err != nil {
		t.Fatalf("%s: %v", specStr, err)
	}
	built, err := Build(spec)
	if err != nil {
		t.Fatalf("%s: %v", specStr, err)
	}
	g, err := geom.NewScene(built.Patches)
	if err != nil {
		t.Fatalf("%s: %v", specStr, err)
	}
	return built, g
}

// checkValid asserts the generator's invariants: valid interned materials,
// finite geometry, at least one luminaire, and a closed scene (no ray from
// the interior escapes).
func checkValid(t testing.TB, specStr string, built *Built, g *geom.Scene) {
	t.Helper()
	if len(g.Luminaires) == 0 {
		t.Fatalf("%s: no luminaires", specStr)
	}
	for i, m := range built.Materials {
		if !m.Validate() {
			t.Fatalf("%s: material %d (%s) invalid", specStr, i, m.Name)
		}
	}
	for i := range built.Patches {
		mi := built.Patches[i].Material
		if mi < 0 || mi >= len(built.Materials) {
			t.Fatalf("%s: patch %d has bad material %d", specStr, i, mi)
		}
	}
	c := g.Bounds().Center()
	r := rng.New(11)
	var h geom.Hit
	for i := 0; i < 128; i++ {
		ray := vecmath.Ray{Origin: c, Dir: sampler.UniformSphere(r)}
		if !g.Intersect(ray, &h) {
			t.Fatalf("%s: ray %d escaped — scene not closed", specStr, i)
		}
	}
}

func TestEveryFamilyBuildsValidScenes(t *testing.T) {
	specs := []string{
		"gen:office/seed=1/rooms=1/density=0",
		"gen:office/seed=42/rooms=3/density=1",
		"gen:lights/seed=2/nx=1/ny=1/collimation=1",
		"gen:lights/seed=2/nx=4/ny=4/collimation=0.005",
		"gen:hall/seed=3/length=6/mirrors=2",
		"gen:hall/seed=3/length=40/mirrors=32",
		"gen:adversarial/seed=4/slivers=0/stacks=0/spans=0",
		"gen:adversarial/seed=4/slivers=64/stacks=64/spans=16",
		"gen:grid/seed=5/patches=24",
		"gen:grid/seed=5/patches=5000",
	}
	for _, name := range Families() {
		specs = append(specs, defaultSpec(name))
	}
	for _, specStr := range specs {
		built, g := buildScene(t, specStr)
		checkValid(t, specStr, built, g)
	}
}

func TestBuildDeterminism(t *testing.T) {
	for _, name := range Families() {
		specStr := defaultSpec(name)
		a, _ := buildScene(t, specStr)
		b, _ := buildScene(t, specStr)
		if len(a.Patches) != len(b.Patches) {
			t.Fatalf("%s: patch counts differ: %d vs %d", name, len(a.Patches), len(b.Patches))
		}
		if a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("%s: rebuild changed geometry", name)
		}
		// A different seed must actually change the scene (every family
		// draws at least one substream choice).
		spec, _ := Parse(specStr)
		spec.Seed = 987654321
		c, err := Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		if c.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s: seed does not influence geometry", name)
		}
	}
}

func TestGridExactPatchCount(t *testing.T) {
	for _, n := range []int{24, 100, 1000, 4097} {
		specStr := Prefix + "grid/patches=" + strconv.Itoa(n)
		built, _ := buildScene(t, specStr)
		if len(built.Patches) != n {
			t.Fatalf("grid/patches=%d built %d patches", n, len(built.Patches))
		}
	}
}

func TestOfficeDensityControlsClutter(t *testing.T) {
	empty, _ := buildScene(t, "gen:office/seed=1/rooms=2/density=0")
	crowded, _ := buildScene(t, "gen:office/seed=1/rooms=2/density=1")
	if len(crowded.Patches) <= len(empty.Patches) {
		t.Fatalf("density=1 (%d patches) not denser than density=0 (%d)",
			len(crowded.Patches), len(empty.Patches))
	}
}

func TestLightsCollimationApplied(t *testing.T) {
	built, g := buildScene(t, "gen:lights/seed=1/nx=2/ny=2/collimation=0.25")
	if len(g.Luminaires) != 4 {
		t.Fatalf("want 4 luminaires, got %d", len(g.Luminaires))
	}
	for _, li := range g.Luminaires {
		if got := built.Patches[li].Collimation; got != 0.25 {
			t.Fatalf("luminaire %d collimation = %v, want 0.25", li, got)
		}
	}
}

func TestHallHasMirrors(t *testing.T) {
	built, _ := buildScene(t, "gen:hall/seed=1/length=16/mirrors=10")
	mirrors := 0
	for i := range built.Patches {
		if built.Materials[built.Patches[i].Material].Name == "mirror" {
			mirrors++
		}
	}
	if mirrors != 10 {
		t.Fatalf("hall has %d mirror patches, want 10", mirrors)
	}
}

func TestSubstreamMatchesPhotonStreamConstruction(t *testing.T) {
	// sub must be a pure function of (seed, kind, idx): same triple, same
	// stream; neighbouring triples, different streams.
	a := sub(7, subDoor, 3).State()
	if b := sub(7, subDoor, 3).State(); b != a {
		t.Fatal("substream not deterministic")
	}
	if sub(7, subDoor, 4).State() == a || sub(8, subDoor, 3).State() == a ||
		sub(7, subFurniture, 3).State() == a {
		t.Fatal("substreams collide across (seed, kind, idx)")
	}
}
