// Package baseline implements the comparator algorithms the dissertation
// surveys in chapters 2 and 3, so the repository can regenerate the
// qualitative comparisons the paper's argument rests on:
//
//   - Full-matrix radiosity: the (I − ρF)b = e linear system, its
//     Gerschgorin diagonal-dominance property, and Jacobi/Gauss-Seidel
//     solvers.
//   - Hierarchical radiosity (Hanrahan-style adaptive subdivision driven by
//     form-factor error — the patch-proliferation behaviour the paper
//     criticizes).
//   - Density estimation (Shirley/Zareski): particle tracing into an O(n)
//     hit-point log and the two-program parallel structure whose meshing
//     phase bottlenecks on the surface with the most hits.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sampler"
	"repro/internal/vecmath"
)

// RadiositySystem is the discrete radiosity linear system (I − ρF)b = e of
// equation 2.5: F is the form-factor matrix (row sums ≤ 1, zero diagonal),
// ρ the per-patch reflectivity, e the emittance.
type RadiositySystem struct {
	N    int
	F    [][]float64 // form factors F[i][j]
	Rho  []float64   // scalar reflectivity per patch
	E    []float64   // emittance per patch
	Area []float64
}

// NewRadiositySystem estimates pairwise form factors for the scene by Monte
// Carlo ray casting from each patch (the paper's point: form-factor
// computation is arduous, which is "perhaps the biggest motivation for
// Monte Carlo methods").
func NewRadiositySystem(sc *geom.Scene, reflectivity []float64, emittance []float64, raysPerPatch int, seed int64) (*RadiositySystem, error) {
	n := len(sc.Patches)
	if len(reflectivity) != n || len(emittance) != n {
		return nil, fmt.Errorf("baseline: reflectivity/emittance length mismatch")
	}
	for i, r := range reflectivity {
		if r < 0 || r >= 1 {
			return nil, fmt.Errorf("baseline: reflectivity[%d]=%v outside [0,1)", i, r)
		}
	}
	sys := &RadiositySystem{
		N: n, Rho: reflectivity, E: emittance,
		F:    make([][]float64, n),
		Area: make([]float64, n),
	}
	r := rng.New(seed)
	var h geom.Hit
	for i := 0; i < n; i++ {
		sys.F[i] = make([]float64, n)
		p := &sc.Patches[i]
		sys.Area[i] = p.Area()
		hits := make([]int, n)
		total := 0
		for k := 0; k < raysPerPatch; k++ {
			// Cosine-weighted ray from a random point on patch i: the
			// fraction arriving at j IS the form factor F_ij.
			origin := p.Point(r.Float64(), r.Float64())
			local := sampler.GustafsonDirection(r)
			dir := p.Basis().ToWorld(local.X, local.Y, local.Z)
			ray := vecmath.Ray{Origin: origin.Add(dir.Scale(geom.Eps)), Dir: dir}
			total++
			if sc.Intersect(ray, &h) {
				hits[h.Patch.ID]++
			}
		}
		for j := 0; j < n; j++ {
			if j != i {
				sys.F[i][j] = float64(hits[j]) / float64(total)
			}
		}
	}
	return sys, nil
}

// RowSums returns the form-factor row sums; in a closed environment each is
// 1 (within Monte Carlo error).
func (s *RadiositySystem) RowSums() []float64 {
	out := make([]float64, s.N)
	for i := range s.F {
		var sum float64
		for _, f := range s.F[i] {
			sum += f
		}
		out[i] = sum
	}
	return out
}

// DiagonallyDominant verifies the Gerschgorin argument of chapter 2: the
// system matrix I − ρF has unit diagonal and off-diagonal row sums ρ_i
// Σ_j F_ij < 1, so iterative methods converge.
func (s *RadiositySystem) DiagonallyDominant() bool {
	for i := 0; i < s.N; i++ {
		var off float64
		for j := 0; j < s.N; j++ {
			if j != i {
				off += math.Abs(s.Rho[i] * s.F[i][j])
			}
		}
		if off >= 1 {
			return false
		}
	}
	return true
}

// SolveJacobi iterates b_{k+1} = e + ρF b_k until the residual max-norm
// falls below tol, returning the radiosity vector and iteration count.
func (s *RadiositySystem) SolveJacobi(tol float64, maxIter int) ([]float64, int) {
	b := append([]float64(nil), s.E...)
	next := make([]float64, s.N)
	for iter := 1; iter <= maxIter; iter++ {
		var delta float64
		for i := 0; i < s.N; i++ {
			var sum float64
			for j := 0; j < s.N; j++ {
				sum += s.F[i][j] * b[j]
			}
			next[i] = s.E[i] + s.Rho[i]*sum
			if d := math.Abs(next[i] - b[i]); d > delta {
				delta = d
			}
		}
		copy(b, next)
		if delta < tol {
			return b, iter
		}
	}
	return b, maxIter
}

// SolveGaussSeidel is the in-place variant; with diagonal dominance it
// converges at least as fast as Jacobi.
func (s *RadiositySystem) SolveGaussSeidel(tol float64, maxIter int) ([]float64, int) {
	b := append([]float64(nil), s.E...)
	for iter := 1; iter <= maxIter; iter++ {
		var delta float64
		for i := 0; i < s.N; i++ {
			var sum float64
			for j := 0; j < s.N; j++ {
				sum += s.F[i][j] * b[j]
			}
			v := s.E[i] + s.Rho[i]*sum
			if d := math.Abs(v - b[i]); d > delta {
				delta = d
			}
			b[i] = v
		}
		if delta < tol {
			return b, iter
		}
	}
	return b, maxIter
}

// ---------------------------------------------------------------------------
// Hierarchical radiosity (Hanrahan-style), enough to exhibit the behaviour
// the dissertation criticizes: subdivision driven by per-link form-factor
// error rather than answer error, producing patches in dark regions where
// they contribute nothing.

// HRNode is a quadtree node over one defining polygon.
type HRNode struct {
	Patch    *geom.Patch
	S0, S1   float64 // s-range on the defining polygon
	T0, T1   float64
	Children []*HRNode
}

// Center returns the node's representative world point.
func (n *HRNode) Center() vecmath.Vec3 {
	return n.Patch.Point((n.S0+n.S1)/2, (n.T0+n.T1)/2)
}

// Area returns the node's world area.
func (n *HRNode) Area() float64 {
	return n.Patch.Area() * (n.S1 - n.S0) * (n.T1 - n.T0)
}

// HierarchicalRadiosity carries out adaptive subdivision: any pair of leaf
// nodes whose estimated point-to-point form factor exceeds fEps is split
// (the larger of the two), down to minArea. It returns the forest and the
// total leaf (patch) count — the "plethora of patches" statistic.
type HierarchicalRadiosity struct {
	Scene   *geom.Scene
	Roots   []*HRNode
	FEps    float64
	MinArea float64
}

// NewHierarchicalRadiosity builds the initial single-node-per-polygon
// forest.
func NewHierarchicalRadiosity(sc *geom.Scene, fEps, minArea float64) *HierarchicalRadiosity {
	hr := &HierarchicalRadiosity{Scene: sc, FEps: fEps, MinArea: minArea}
	for i := range sc.Patches {
		p := &sc.Patches[i]
		hr.Roots = append(hr.Roots, &HRNode{Patch: p, S0: 0, S1: 1, T0: 0, T1: 1})
	}
	return hr
}

// pointToPointFF estimates the unoccluded point-to-point form factor kernel
// cosθ cosθ' A' / (π r²) between node centers.
func pointToPointFF(a, b *HRNode) float64 {
	d := b.Center().Sub(a.Center())
	r2 := d.Len2()
	if r2 == 0 {
		return 1
	}
	dir := d.Scale(1 / math.Sqrt(r2))
	ca := dir.Dot(a.Patch.Normal())
	cb := dir.Neg().Dot(b.Patch.Normal())
	if ca <= 0 || cb <= 0 {
		return 0
	}
	return ca * cb * b.Area() / (math.Pi * r2)
}

// Refine subdivides until every interacting leaf pair has estimated form
// factor below FEps, and returns the number of leaf patches produced.
func (hr *HierarchicalRadiosity) Refine(maxRounds int) int {
	for round := 0; round < maxRounds; round++ {
		split := false
		leaves := hr.Leaves()
		for i := 0; i < len(leaves); i++ {
			for j := i + 1; j < len(leaves); j++ {
				a, b := leaves[i], leaves[j]
				if pointToPointFF(a, b) <= hr.FEps && pointToPointFF(b, a) <= hr.FEps {
					continue
				}
				big := a
				if b.Area() > a.Area() {
					big = b
				}
				if big.Area()/4 < hr.MinArea {
					continue
				}
				subdivide(big)
				split = true
			}
			if split {
				break // leaf set changed; restart the scan
			}
		}
		if !split {
			break
		}
	}
	return hr.LeafCount()
}

func subdivide(n *HRNode) {
	if len(n.Children) > 0 {
		return
	}
	sm := (n.S0 + n.S1) / 2
	tm := (n.T0 + n.T1) / 2
	n.Children = []*HRNode{
		{Patch: n.Patch, S0: n.S0, S1: sm, T0: n.T0, T1: tm},
		{Patch: n.Patch, S0: sm, S1: n.S1, T0: n.T0, T1: tm},
		{Patch: n.Patch, S0: n.S0, S1: sm, T0: tm, T1: n.T1},
		{Patch: n.Patch, S0: sm, S1: n.S1, T0: tm, T1: n.T1},
	}
}

// Leaves returns all current leaf nodes.
func (hr *HierarchicalRadiosity) Leaves() []*HRNode {
	var out []*HRNode
	var walk func(n *HRNode)
	walk = func(n *HRNode) {
		if len(n.Children) == 0 {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range hr.Roots {
		walk(r)
	}
	return out
}

// LeafCount returns the number of leaf patches.
func (hr *HierarchicalRadiosity) LeafCount() int { return len(hr.Leaves()) }
