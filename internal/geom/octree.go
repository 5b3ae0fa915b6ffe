//photon:deterministic — intersection results and traversal order must not vary between runs;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package geom

import (
	"runtime"
	"sync"

	"repro/internal/vecmath"
)

// OctreeConfig controls octree construction.
type OctreeConfig struct {
	// MaxDepth bounds recursion; leaves at MaxDepth hold however many
	// patches remain. It is clamped to maxOctreeDepth so the traversal's
	// fixed-size stack can never overflow.
	MaxDepth int
	// LeafTarget is the patch count below which a node stays a leaf.
	LeafTarget int
}

// DefaultOctreeConfig returns the construction parameters used throughout
// the system; they are tuned for scenes of tens to thousands of defining
// polygons (Table 5.1's range).
func DefaultOctreeConfig() OctreeConfig {
	return OctreeConfig{MaxDepth: 10, LeafTarget: 8}
}

// maxOctreeDepth caps MaxDepth so the traversal's fixed-size stack (see
// traversalStack) can never overflow.
const maxOctreeDepth = 30

// parallelBuildCutoff is the item count above which a node's eight child
// subtrees build on their own goroutines (single-CPU hosts stay serial —
// the fan-out would only add scheduling overhead). Below the cutoff the
// per-goroutine overhead exceeds the overlap-test work being split.
const parallelBuildCutoff = 256

// Octree is the paper's spatial index: it "orders the intersection testing
// for a given photon such that we only test polygons in the space the photon
// is traveling through. When an intersection is detected, it is the closest
// intersection and further testing is not needed."
//
// The index is stored flattened: all nodes live in one contiguous slice with
// the eight children of an interior node adjacent (children[k] at
// nodes[child+k] for octant k), and every leaf's patch indices are a range
// of one shared slab. Traversal therefore touches sequential cache lines
// instead of chasing per-node heap pointers, and the regular octant
// numbering lets front-to-back order come from the ray's direction sign
// bits (index ^ signMask) rather than a per-node sort.
type Octree struct {
	patches []Patch    // scene patch storage; leaves refer by index
	nodes   []flatNode // node 0 is the root; children contiguous
	items   []int32    // shared leaf slab: patch indices, ascending per leaf

	nodeCount int
	leafCount int
	depth     int
}

// flatNode is one octree cell. 64 bytes — exactly one cache line — so a
// parent and its first children typically share a handful of lines.
type flatNode struct {
	bounds vecmath.AABB
	// child is the index of the first of this node's 8 contiguous children,
	// or -1 for a leaf.
	child int32
	// start/count delimit the leaf's patch-index range in the items slab
	// (leaves only; count 0 marks an empty leaf traversal skips for free).
	start, count int32
}

// buildNode is the temporary pointer-linked node used during construction.
// Subtrees build independently (in parallel above parallelBuildCutoff) and
// carry their own aggregate counters, so the finished tree and its stats
// are pure functions of the input regardless of goroutine scheduling; a
// serial flatten pass then lays the nodes out deterministically.
type buildNode struct {
	bounds   vecmath.AABB
	children *[8]*buildNode // nil for leaves
	items    []int32        // patch indices (leaves only)

	// Subtree aggregates, filled bottom-up.
	nodes, leaves, depth, nItems int
}

// BuildOctree constructs an octree over the patches. Patches are stored in
// every leaf whose cell their bounding box overlaps, so boundary-spanning
// polygons are never missed.
func BuildOctree(patches []Patch, cfg OctreeConfig) *Octree {
	if cfg.MaxDepth > maxOctreeDepth {
		cfg.MaxDepth = maxOctreeDepth
	}
	o := &Octree{patches: patches}
	bounds := vecmath.EmptyAABB()
	for i := range patches {
		bounds = bounds.Union(patches[i].Bounds())
	}
	bounds = bounds.Pad(1e-9 + 1e-6*bounds.Size().MaxComponent())
	all := make([]int32, len(patches))
	for i := range all {
		all[i] = int32(i)
	}
	root := buildSubtree(patches, bounds, all, 0, cfg)
	o.nodeCount, o.leafCount, o.depth = root.nodes, root.leaves, root.depth
	o.nodes = make([]flatNode, 0, root.nodes)
	o.items = make([]int32, 0, root.nItems)
	o.nodes = append(o.nodes, flatNode{})
	o.flatten(0, root)
	return o
}

// buildSubtree recursively constructs the subtree for one cell. The octant
// subsets are computed — and the no-progress case rejected — *before* any
// child recursion, so a cell whose patches span every octant costs eight
// overlap scans, not an O(8^depth) construct-and-discard of its whole
// subtree.
func buildSubtree(patches []Patch, bounds vecmath.AABB, items []int32, depth int, cfg OctreeConfig) *buildNode {
	n := &buildNode{bounds: bounds, nodes: 1, leaves: 1, depth: depth, nItems: len(items)}
	if len(items) <= cfg.LeafTarget || depth >= cfg.MaxDepth {
		n.items = items
		return n
	}
	var subs [8][]int32
	allSame := true
	for i := 0; i < 8; i++ {
		cell := bounds.Octant(i)
		for _, idx := range items {
			if patches[idx].Bounds().Overlaps(cell) {
				subs[i] = append(subs[i], idx)
			}
		}
		if len(subs[i]) != len(items) {
			allSame = false
		}
	}
	if allSame {
		// Subdividing did not separate anything (e.g. a large patch spans
		// every octant); stay a leaf to avoid useless depth.
		n.items = items
		return n
	}
	var children [8]*buildNode
	if len(items) >= parallelBuildCutoff && runtime.GOMAXPROCS(0) > 1 {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				children[i] = buildSubtree(patches, bounds.Octant(i), subs[i], depth+1, cfg)
			}(i)
		}
		wg.Wait()
	} else {
		for i := 0; i < 8; i++ {
			children[i] = buildSubtree(patches, bounds.Octant(i), subs[i], depth+1, cfg)
		}
	}
	n.children = &children
	n.leaves, n.nItems = 0, 0
	for _, c := range children {
		n.nodes += c.nodes
		n.leaves += c.leaves
		n.nItems += c.nItems
		if c.depth > n.depth {
			n.depth = c.depth
		}
	}
	return n
}

// flatten lays bn out at nodes[slot], depth-first with each node's eight
// children contiguous. Slots are reserved before recursion, so a node and
// its children occupy one run of the slice; the capacity is exact (from the
// build aggregates), so the appends never reallocate.
func (o *Octree) flatten(slot int32, bn *buildNode) {
	if bn.children == nil {
		o.nodes[slot] = flatNode{
			bounds: bn.bounds,
			child:  -1,
			start:  int32(len(o.items)),
			count:  int32(len(bn.items)),
		}
		o.items = append(o.items, bn.items...)
		return
	}
	base := int32(len(o.nodes))
	o.nodes = o.nodes[:len(o.nodes)+8]
	o.nodes[slot] = flatNode{bounds: bn.bounds, child: base}
	for k := int32(0); k < 8; k++ {
		o.flatten(base+k, bn.children[k])
	}
}

// Stats returns (node count, leaf count, max depth) for diagnostics.
func (o *Octree) Stats() (nodes, leaves, depth int) {
	return o.nodeCount, o.leafCount, o.depth
}

// traversalStack bounds the walk's DFS stack. Each interior visit pops one
// entry and pushes at most eight, so a walk through interior nodes down to
// depth maxOctreeDepth−1 holds at most 8 + 7·(maxOctreeDepth−1) = 211
// entries.
const traversalStack = 8 * maxOctreeDepth

// Intersect finds the closest hit along r within (tMin, tMax) using ordered
// front-to-back traversal, so descent terminates as soon as a hit closer
// than the next cell's entry distance is known.
func (o *Octree) Intersect(r vecmath.Ray, tMin, tMax float64, h *Hit) bool {
	var stack [traversalStack]int32
	return o.walk(r, 1/r.Dir.X, 1/r.Dir.Y, 1/r.Dir.Z, tMin, tMax, h, &stack)
}

// walk is the octree's one traversal loop; Intersect and IntersectPacket
// both run every ray through it. (ix, iy, iz) is the ray's reciprocal
// direction, computed once per ray by the caller.
//
// The walk is iterative over the flat node slice with an explicit int32
// node stack. Children are pushed far-to-near so the nearest pops first;
// because octants form a regular grid, front-to-back order among the (at
// most four) sibling cells a ray can pass through is exactly ascending
// child ^ signMask, where signMask collects the ray direction's sign bits —
// no per-node sorting. Each cell's slab test runs once, at pop time,
// against the best hit found so far, so a cell entered beyond it is
// discarded unvisited.
//
// The slab test is AABB.IntersectRayInv's compare-and-swap arithmetic in
// the same order, inlined by hand (the Go inliner balks at its size) and
// reduced to the boolean: t0 only grows and t1 only shrinks as axes fold
// in, so "t0 > t1 after any axis" decides the final comparison. NaN
// comparisons (a ray starting exactly on a slab plane of an axis-parallel
// direction) are all false and leave t0/t1 untouched, as in the full test.
// Testing at pop time against the then-current best is the same decision
// as a push-time slab test followed by a pop-time entry-distance check:
// t0 is clamped to tMin only and never depends on the upper bound, so the
// two checks combine to exactly "t0 ≤ min(far planes, best at pop)".
func (o *Octree) walk(r vecmath.Ray, ix, iy, iz, tMin, tMax float64, h *Hit, stack *[traversalStack]int32) bool {
	ox, oy, oz := r.Origin.X, r.Origin.Y, r.Origin.Z
	var signMask int32
	if ix < 0 {
		signMask |= 1
	}
	if iy < 0 {
		signMask |= 2
	}
	if iz < 0 {
		signMask |= 4
	}
	best := tMax
	found := false
	stack[0] = 0
	sp := 1
	for sp > 0 {
		sp--
		nd := &o.nodes[stack[sp]]
		b := &nd.bounds
		t0, t1 := tMin, best
		near := (b.Min.X - ox) * ix
		far := (b.Max.X - ox) * ix
		if near > far {
			near, far = far, near
		}
		if near > t0 {
			t0 = near
		}
		if far < t1 {
			t1 = far
		}
		if t0 > t1 {
			continue
		}
		near = (b.Min.Y - oy) * iy
		far = (b.Max.Y - oy) * iy
		if near > far {
			near, far = far, near
		}
		if near > t0 {
			t0 = near
		}
		if far < t1 {
			t1 = far
		}
		if t0 > t1 {
			continue
		}
		near = (b.Min.Z - oz) * iz
		far = (b.Max.Z - oz) * iz
		if near > far {
			near, far = far, near
		}
		if near > t0 {
			t0 = near
		}
		if far < t1 {
			t1 = far
		}
		if t0 > t1 {
			continue
		}
		if nd.child < 0 {
			// Patch.Intersect writes h only on success, so h doubles as the
			// running best without a temporary. A patch stored in this leaf
			// may be hit outside the leaf's cell (patches span cells); that
			// is fine — best only shrinks, and correctness never depends on
			// the hit being inside this cell.
			for _, idx := range o.items[nd.start : nd.start+nd.count] {
				if o.patches[idx].Intersect(r, tMin, best, h) {
					best = h.T
					found = true
				}
			}
			continue
		}
		// Push children far-to-near: descending k pops in ascending
		// (k ^ signMask) entry order. Empty leaves are skipped unpushed.
		for k := int32(7); k >= 0; k-- {
			ci := nd.child + (k ^ signMask)
			c := &o.nodes[ci]
			if c.child < 0 && c.count == 0 {
				continue
			}
			stack[sp] = ci
			sp++
		}
	}
	return found
}

// RegionOf returns the index (0..7) of the root octant containing p, or -1
// if p lies outside the octree bounds. The geometry-distribution extension
// (chapter 6) partitions space ownership by root octant.
func (o *Octree) RegionOf(p vecmath.Vec3) int {
	root := o.nodes[0].bounds
	if !root.Contains(p) {
		return -1
	}
	c := root.Center()
	i := 0
	if p.X >= c.X {
		i |= 1
	}
	if p.Y >= c.Y {
		i |= 2
	}
	if p.Z >= c.Z {
		i |= 4
	}
	return i
}

// Bounds returns the root bounds of the octree.
func (o *Octree) Bounds() vecmath.AABB { return o.nodes[0].bounds }

// flatNodeBytes is the size of one flatNode: a 48-byte AABB plus three
// int32s, padded to 8-byte alignment.
const flatNodeBytes = 64

// MemoryEstimate returns the byte count of the flattened index — the node
// slice plus the shared leaf slab — used by the memory-growth experiment to
// separate geometry storage (constant) from the bin forest (growing).
func (o *Octree) MemoryEstimate() int64 {
	return int64(len(o.nodes))*flatNodeBytes + int64(len(o.items))*4
}
