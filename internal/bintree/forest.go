//photon:deterministic — adaptive bin trees must evolve identically given an identical tally order;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package bintree

import "math"

// Forest is the per-scene collection of bin trees, one per defining polygon
// (Figure 4.6: "a forest of bin trees" under the geometry octree). The
// Forest is the complete discrete representation of the radiance function —
// the answer to the global illumination problem.
//
// A forest may be *sectioned*: each polygon's histogram split into
// cells×cells (s,t) sections, each its own tree. Sections are the
// distributed engine's ownership unit — finer than whole polygons, which is
// what lets Best-Fit bin packing balance a hot floor across ranks.
type Forest struct {
	trees []*Tree
	cfg   Config
	cells int // sections per (s and t) axis per patch; 1 = unsectioned
}

// NewForest creates a forest with one empty tree per patch.
func NewForest(nPatches int, cfg Config) *Forest {
	return NewForestSectioned(nPatches, 1, cfg)
}

// NewForestSectioned creates a forest with cells×cells section trees per
// patch.
func NewForestSectioned(nPatches, cells int, cfg Config) *Forest {
	if cells < 1 {
		cells = 1
	}
	f := &Forest{trees: make([]*Tree, nPatches*cells*cells), cfg: cfg, cells: cells}
	inv := 1 / float64(cells)
	for p := 0; p < nPatches; p++ {
		for r := 0; r < cells; r++ {
			for c := 0; c < cells; c++ {
				f.trees[(p*cells+r)*cells+c] = NewTreeDomain(cfg,
					float64(c)*inv, float64(c+1)*inv,
					float64(r)*inv, float64(r+1)*inv)
			}
		}
	}
	return f
}

// Cells returns the per-axis section count.
func (f *Forest) Cells() int { return f.cells }

// NumPatches returns the number of defining polygons covered.
func (f *Forest) NumPatches() int { return len(f.trees) / (f.cells * f.cells) }

// UnitOf returns the tree index holding histogram point p of patch i — the
// distributed ownership unit.
func (f *Forest) UnitOf(i int, p Point) int {
	if f.cells == 1 {
		return i
	}
	col := int(p.S * float64(f.cells))
	if col >= f.cells {
		col = f.cells - 1
	} else if col < 0 {
		col = 0
	}
	row := int(p.T * float64(f.cells))
	if row >= f.cells {
		row = f.cells - 1
	} else if row < 0 {
		row = 0
	}
	return (i*f.cells+row)*f.cells + col
}

// Config returns the forest's split configuration.
func (f *Forest) Config() Config { return f.cfg }

// NumTrees returns the number of patch trees.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Tree returns the tree for patch i.
func (f *Forest) Tree(i int) *Tree { return f.trees[i] }

// ReplaceTree installs t as the tree for patch i. The distributed engine
// assembles the final answer by installing each polygon's tree from its
// owning rank (ownership keeps the trees disjoint).
func (f *Forest) ReplaceTree(i int, t *Tree) { f.trees[i] = t }

// Add tallies a photon on patch i. Reports whether a bin split.
func (f *Forest) Add(i int, p Point, w RGB) bool {
	return f.trees[f.UnitOf(i, p)].Add(p, w)
}

// TotalPhotons returns the photons tallied across all trees.
func (f *Forest) TotalPhotons() int64 {
	var n int64
	for _, t := range f.trees {
		n += t.Total()
	}
	return n
}

// TotalLeaves returns the leaf-bin count across the forest — the paper's
// "view-dependent polygons" (Table 5.1).
func (f *Forest) TotalLeaves() int {
	n := 0
	for _, t := range f.trees {
		n += t.Leaves()
	}
	return n
}

// MemoryBytes estimates the forest's storage (Figure 5.4).
func (f *Forest) MemoryBytes() int64 {
	var n int64
	for _, t := range f.trees {
		n += t.MemoryBytes()
	}
	return n
}

// Radiance estimates the outgoing radiance of patch i at histogram
// coordinates pt. patchArea is the patch's world area; the caller supplies
// it because the forest deliberately knows nothing about world geometry.
// The estimate is the leaf's tallied RGB power divided by the bin's measure
// (surface area covered × projected solid angle): W·m⁻²·sr⁻¹.
func (f *Forest) Radiance(i int, pt Point, patchArea float64) RGB {
	leaf := f.trees[f.UnitOf(i, pt)].Leaf(pt)
	if leaf.count == 0 {
		return RGB{}
	}
	area := patchArea * leaf.AreaFraction()
	omega := leaf.ProjSolidAngle()
	if area <= 0 || omega <= 0 {
		return RGB{}
	}
	return leaf.power.Scale(1 / (area * omega))
}

// Fingerprint returns an order-sensitive FNV-1a hash over the complete
// forest — sectioning, every node's split structure, and the exact bits of
// every tally (counts, speculative half-counts, RGB power). Two forests
// fingerprint equal iff they are structurally identical down to
// floating-point bits, which is the cross-engine conformance test's
// equality: engines agree not just statistically but on the answer itself.
func (f *Forest) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mixF := func(x float64) { mix(math.Float64bits(x)) }
	mix(uint64(f.cells))
	mix(uint64(len(f.trees)))
	for _, t := range f.trees {
		t.Walk(func(n *Node) {
			if n.IsLeaf() {
				mix(0)
				mix(uint64(n.count))
				mixF(n.power.R)
				mixF(n.power.G)
				mixF(n.power.B)
				for a := 0; a < numAxes; a++ {
					mix(uint64(n.halfLo[a]))
				}
			} else {
				mix(1)
				mix(uint64(n.splitAxis))
				mixF(n.splitAt)
			}
		})
	}
	return h
}

// PhotonCounts returns per-tree photon totals; the distributed load
// balancer packs these.
func (f *Forest) PhotonCounts() []int64 {
	out := make([]int64, len(f.trees))
	for i, t := range f.trees {
		out[i] = t.Total()
	}
	return out
}
