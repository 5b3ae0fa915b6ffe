//photon:deterministic — adaptive bin trees must evolve identically given an identical tally order;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

// Package bintree implements the paper's central data structure: the
// four-dimensional adaptive histogram bin tree (Figures 4.5 and 4.6).
//
// Each defining polygon owns one tree whose root bin spans the full
// parameter domain
//
//	s ∈ [0,1) × t ∈ [0,1) × r² ∈ [0,1) × θ ∈ [0,2π)
//
// where (s,t) are the bilinear surface coordinates and (r²,θ) the projected
// cylindrical coordinates of the reflected direction. r² — the *squared*
// projected radius — is the parameter the paper chooses because halving it
// halves a Lambertian distribution, which neither the elevation angle nor
// the unsquared radius does.
//
// Every reflected photon is tallied into the leaf containing its
// coordinates. Leaves keep "speculative" half-tallies along all four axes
// (the per-parameter "little extra work" of section 4): when the two
// prospective daughters along some axis differ by more than SplitSigma
// binomial standard deviations, the leaf splits along the axis with the
// strongest evidence — refinement happens exactly where the radiance
// gradient is largest. Colour is the fifth, unsplit dimension: each leaf
// carries RGB power tallies.
//
// The collection of trees — one per polygon — forms the Forest, the
// "forest of bin trees" under the scene octree in Figure 4.6.
package bintree

import (
	"fmt"
	"math"
)

// Axis identifies one of the four subdivided histogram dimensions.
type Axis uint8

// The four subdivision axes.
const (
	AxisS Axis = iota
	AxisT
	AxisR2
	AxisTheta
	numAxes = 4
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisS:
		return "s"
	case AxisT:
		return "t"
	case AxisR2:
		return "r2"
	case AxisTheta:
		return "theta"
	}
	return fmt.Sprintf("Axis(%d)", uint8(a))
}

// Point is a photon's coordinates in the 4-D histogram domain.
type Point struct {
	S, T, R2, Theta float64
}

func (p Point) coord(a Axis) float64 {
	switch a {
	case AxisS:
		return p.S
	case AxisT:
		return p.T
	case AxisR2:
		return p.R2
	default:
		return p.Theta
	}
}

// RGB is an additive colour tally.
type RGB struct {
	R, G, B float64
}

// Add returns the component-wise sum.
func (c RGB) Add(o RGB) RGB { return RGB{c.R + o.R, c.G + o.G, c.B + o.B} }

// Scale returns the tally scaled by k.
func (c RGB) Scale(k float64) RGB { return RGB{c.R * k, c.G * k, c.B * k} }

// Config controls bin splitting.
type Config struct {
	// SplitSigma is the rejection threshold in binomial standard
	// deviations; the paper uses 3 (99.74% confidence).
	SplitSigma float64
	// MinCount is the minimum photons in a bin before split decisions are
	// made, keeping the normal approximation valid.
	MinCount int64
	// MaxDepth bounds tree depth (and therefore memory) per tree.
	MaxDepth int
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{SplitSigma: 3, MinCount: 32, MaxDepth: 24}
}

// Node is one bin: an axis-aligned box in the 4-D domain. Interior nodes
// carry their split axis and children; leaves carry tallies.
type Node struct {
	lo, hi [numAxes]float64

	// Interior fields.
	left, right *Node
	splitAxis   Axis
	splitAt     float64

	// Leaf tallies.
	count  int64          // photon count while a leaf
	power  RGB            // accumulated RGB photon power
	halfLo [numAxes]int64 // counts in the lower half, per axis
	depth  int
}

// IsLeaf reports whether the node is a leaf bin.
func (n *Node) IsLeaf() bool { return n.left == nil }

// Power returns the RGB power tallied into this leaf.
func (n *Node) Power() RGB { return n.power }

// Bounds returns the lo/hi corner of the bin along axis a.
func (n *Node) Bounds(a Axis) (lo, hi float64) { return n.lo[a], n.hi[a] }

// mid returns the split point along axis a.
func (n *Node) mid(a Axis) float64 { return n.lo[a] + (n.hi[a]-n.lo[a])/2 }

// Measure4 returns the 4-D volume of the bin: Δs·Δt·Δr²·Δθ.
func (n *Node) Measure4() float64 {
	m := 1.0
	for a := 0; a < numAxes; a++ {
		m *= n.hi[a] - n.lo[a]
	}
	return m
}

// AreaFraction returns Δs·Δt — the fraction of the patch's area the bin
// covers.
func (n *Node) AreaFraction() float64 {
	return (n.hi[AxisS] - n.lo[AxisS]) * (n.hi[AxisT] - n.lo[AxisT])
}

// ProjSolidAngle returns the projected solid angle the bin's direction cell
// subtends: ∫cosθ dω = ½·Δ(r²)·Δθ. The full hemisphere gives π.
func (n *Node) ProjSolidAngle() float64 {
	return 0.5 * (n.hi[AxisR2] - n.lo[AxisR2]) * (n.hi[AxisTheta] - n.lo[AxisTheta])
}

// Tree is the adaptive bin tree for a single defining polygon. It is not
// safe for concurrent mutation; the parallel engines synchronize externally
// (multiple-reader / single-writer, as in the paper's shared-memory
// algorithm).
type Tree struct {
	root   *Node
	cfg    Config
	leaves int
	nodes  int
	total  int64 // photons tallied into this tree
}

// NewTree returns an empty tree spanning the full 4-D domain.
func NewTree(cfg Config) *Tree {
	root := &Node{}
	root.hi = [numAxes]float64{1, 1, 1, 2 * math.Pi}
	return &Tree{root: root, cfg: cfg, leaves: 1, nodes: 1}
}

// NewTreeDomain returns an empty tree whose root spans only the (s,t)
// rectangle [sLo,sHi)×[tLo,tHi) (directions stay full). The distributed
// engine partitions each polygon's histogram into such sections so that
// ownership — and therefore load balancing — can be finer than whole
// polygons, the paper's "each processor is assigned a section of the bin
// forest".
func NewTreeDomain(cfg Config, sLo, sHi, tLo, tHi float64) *Tree {
	root := &Node{}
	root.lo = [numAxes]float64{sLo, tLo, 0, 0}
	root.hi = [numAxes]float64{sHi, tHi, 1, 2 * math.Pi}
	return &Tree{root: root, cfg: cfg, leaves: 1, nodes: 1}
}

// clampPoint forces p into the domain (round-off guard).
func clampPoint(p Point) Point {
	clamp := func(x, lo, hi float64) float64 {
		if x < lo {
			return lo
		}
		if x >= hi {
			return math.Nextafter(hi, lo)
		}
		return x
	}
	p.S = clamp(p.S, 0, 1)
	p.T = clamp(p.T, 0, 1)
	p.R2 = clamp(p.R2, 0, 1)
	p.Theta = clamp(p.Theta, 0, 2*math.Pi)
	return p
}

// Leaf descends to the leaf bin containing p.
func (t *Tree) Leaf(p Point) *Node {
	p = clampPoint(p)
	n := t.root
	for !n.IsLeaf() {
		if p.coord(n.splitAxis) < n.splitAt {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// Add tallies a photon with RGB power w at coordinates p, performing the
// speculative binning and splitting the leaf if the 3σ criterion fires.
// It returns true when a split occurred.
func (t *Tree) Add(p Point, w RGB) bool {
	p = clampPoint(p)
	n := t.Leaf(p)
	n.count++
	n.power = n.power.Add(w)
	for a := Axis(0); a < numAxes; a++ {
		if p.coord(a) < n.mid(a) {
			n.halfLo[a]++
		}
	}
	t.total++
	if n.depth >= t.cfg.MaxDepth {
		return false
	}
	axis, ok := n.chooseSplitAxis(t.cfg)
	if !ok {
		return false
	}
	t.split(n, axis)
	return true
}

// chooseSplitAxis applies the paper's criterion along every axis and returns
// the axis with the strongest rejection of the uniform hypothesis ("we split
// where there is the largest gradient"), if any axis exceeds SplitSigma.
func (n *Node) chooseSplitAxis(cfg Config) (Axis, bool) {
	if n.count < cfg.MinCount {
		return 0, false
	}
	bestAxis, bestScore := Axis(0), 0.0
	for a := Axis(0); a < numAxes; a++ {
		lo := n.halfLo[a]
		hi := n.count - lo
		big := lo
		if hi > big {
			big = hi
		}
		p := float64(big) / float64(n.count) // paper: p from the fuller half
		q := 1 - p
		// The tested statistic is the half difference D = lo − hi = 2·lo − n,
		// whose standard deviation under the uniform hypothesis is
		// 2·sqrt(npq); "differ by more than 3σ" then rejects a truly uniform
		// bin with probability 1−0.9974, the paper's confidence.
		sigma := 2 * math.Sqrt(float64(n.count)*p*q)
		if sigma == 0 {
			// All photons in one half: infinitely strong evidence unless
			// the count is trivial (MinCount already guards that).
			sigma = 1
		}
		score := math.Abs(float64(lo-hi)) / sigma
		if score > bestScore {
			bestScore, bestAxis = score, a
		}
	}
	return bestAxis, bestScore > cfg.SplitSigma
}

// split replaces leaf n with two daughters along axis. The observed half
// tallies become the daughters' counts; power divides proportionally; the
// daughters' own speculative tallies restart from the uniform hypothesis.
func (t *Tree) split(n *Node, axis Axis) {
	mid := n.mid(axis)
	mkChild := func(cnt int64) *Node {
		c := &Node{lo: n.lo, hi: n.hi, depth: n.depth + 1, count: cnt}
		if n.count > 0 {
			c.power = n.power.Scale(float64(cnt) / float64(n.count))
		}
		for a := Axis(0); a < numAxes; a++ {
			c.halfLo[a] = cnt / 2
		}
		return c
	}
	left := mkChild(n.halfLo[axis])
	right := mkChild(n.count - n.halfLo[axis])
	left.hi[axis] = mid
	right.lo[axis] = mid
	n.left, n.right = left, right
	n.splitAxis, n.splitAt = axis, mid
	n.count, n.power = 0, RGB{}
	n.halfLo = [numAxes]int64{}
	t.leaves++ // one leaf became two
	t.nodes += 2
}

// Total returns the number of photons tallied into the tree.
func (t *Tree) Total() int64 { return t.total }

// Leaves returns the current leaf count — the number of "view-dependent
// polygons" this patch contributes (Table 5.1's second column counts these
// across the whole forest).
func (t *Tree) Leaves() int { return t.leaves }

// Nodes returns the total node count.
func (t *Tree) Nodes() int { return t.nodes }

// MaxDepth returns the deepest leaf's depth.
func (t *Tree) MaxDepth() int {
	max := 0
	t.Walk(func(n *Node) {
		if n.IsLeaf() && n.depth > max {
			max = n.depth
		}
	})
	return max
}

// Walk visits every node in depth-first order.
func (t *Tree) Walk(fn func(*Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		fn(n)
		if !n.IsLeaf() {
			rec(n.left)
			rec(n.right)
		}
	}
	rec(t.root)
}

// SumLeafCounts returns the total photon count across leaves; it must equal
// Total (tested invariant: splits conserve tallies).
func (t *Tree) SumLeafCounts() int64 {
	var sum int64
	t.Walk(func(n *Node) {
		if n.IsLeaf() {
			sum += n.count
		}
	})
	return sum
}

// MemoryBytes estimates the tree's storage, for the Figure 5.4 experiment.
func (t *Tree) MemoryBytes() int64 {
	const nodeBytes = 8*(2*numAxes) + // lo, hi
		2*8 + // child pointers
		16 + // split axis/at
		8 + 24 + // count, power
		8*numAxes + // halfLo
		8 // depth
	return int64(t.nodes) * nodeBytes
}

// SplitAxisCounts returns how many interior nodes split along each axis —
// a direct readout of where the refinement went (planar s,t vs angular
// r²,θ).
func (t *Tree) SplitAxisCounts() [4]int {
	var counts [4]int
	t.Walk(func(n *Node) {
		if !n.IsLeaf() {
			counts[n.splitAxis]++
		}
	})
	return counts
}

// AngularLeafFraction returns the fraction of leaves whose direction cell
// (r²,θ) is subdivided below the full hemisphere. Mirrors need deep angular
// subdivision; ideal diffuse surfaces need almost none — the property the
// paper highlights for the Harpsichord Room mirror.
func (t *Tree) AngularLeafFraction() float64 {
	var angular, leaves int
	t.Walk(func(n *Node) {
		if !n.IsLeaf() {
			return
		}
		leaves++
		if n.hi[AxisR2]-n.lo[AxisR2] < 1 || n.hi[AxisTheta]-n.lo[AxisTheta] < 2*math.Pi {
			angular++
		}
	})
	if leaves == 0 {
		return 0
	}
	return float64(angular) / float64(leaves)
}
