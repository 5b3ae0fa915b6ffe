//photon:deterministic — adaptive bin trees must evolve identically given an identical tally order;
// photon-lint (nondeterm, floatreduce) polices this file — see DESIGN.md.

package bintree

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary answer-file format for bin forests. The paper's two-stage pipeline
// (simulate, then view "using the same answer file" — Figure 4.10) depends
// on a durable on-disk representation of the radiance database; this is it.
//
// Layout (little-endian):
//
//	magic "PBF2"
//	cfg: SplitSigma float64, MinCount int64, MaxDepth int64
//	cells int64 (sections per axis), tree count int64
//	per tree: root lo[4] float64, root hi[4] float64, total int64,
//	node stream (pre-order):
//	    tag byte (0 leaf, 1 interior)
//	    leaf: count int64, power 3×float64, halfLo 4×int64, depth int64
//	    interior: splitAxis byte, splitAt float64, then left, right
//
// Interior bounds are not stored: they are reconstructed during decoding
// from the root domain and split points, which both saves space and makes
// corrupt files detectable.

const forestMagic = "PBF2"

// maxDecodeDepth bounds the MaxDepth a decoded header may claim, and with
// it the node recursion of a decode: a hostile stream of ever-narrower
// splits must fail cleanly, not exhaust the stack. Real trees stop at
// Config.MaxDepth (24 by default).
const maxDecodeDepth = 1024

// EncodeForest writes the forest to w.
func EncodeForest(w io.Writer, f *Forest) error {
	bw := bufio.NewWriter(w)
	b := appendFloats([]byte(forestMagic), f.cfg.SplitSigma)
	b = appendInts(b, f.cfg.MinCount, int64(f.cfg.MaxDepth), int64(f.cells), int64(len(f.trees)))
	for _, t := range f.trees {
		if _, err := bw.Write(b); err != nil {
			return err
		}
		b = appendTree(b[:0], t)
	}
	if _, err := bw.Write(b); err != nil {
		return err
	}
	return bw.Flush()
}

// appendTree appends one tree's root domain, total and node stream.
func appendTree(b []byte, t *Tree) []byte {
	b = appendFloats(b, t.root.lo[:]...)
	b = appendFloats(b, t.root.hi[:]...)
	return appendNode(appendInts(b, t.total), t.root)
}

func appendNode(b []byte, n *Node) []byte {
	if n.IsLeaf() {
		b = appendInts(append(b, 0), n.count)
		b = appendFloats(b, n.power.R, n.power.G, n.power.B)
		b = appendInts(b, n.halfLo[:]...)
		return appendInts(b, int64(n.depth))
	}
	b = appendFloats(append(b, 1, byte(n.splitAxis)), n.splitAt)
	return appendNode(appendNode(b, n.left), n.right)
}

func appendFloats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func appendInts(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// DecodeForest reads a forest written by EncodeForest.
func DecodeForest(r io.Reader) (*Forest, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("bintree: reading magic: %w", err)
	}
	if string(magic) != forestMagic {
		return nil, fmt.Errorf("bintree: bad magic %q", magic)
	}
	d := &decoder{r: br}
	cfg, err := d.config()
	if err != nil {
		return nil, err
	}
	cells, nTrees := d.i64(), d.i64()
	if d.err != nil {
		return nil, d.err
	}
	if cells < 1 || cells > 1024 {
		return nil, fmt.Errorf("bintree: implausible cell count %d", cells)
	}
	// Every encoder writes patches × cells² trees.
	if nTrees < 0 || nTrees > 1<<31 || nTrees%(cells*cells) != 0 {
		return nil, fmt.Errorf("bintree: implausible tree count %d for %d cells", nTrees, cells)
	}
	// The header's count is only a claim: trees are appended as they
	// decode, so a short file cannot make the decoder allocate for 2³¹.
	f := &Forest{cfg: cfg, trees: make([]*Tree, 0, min(nTrees, 1024)), cells: int(cells)}
	for i := int64(0); i < nTrees; i++ {
		t, err := decodeTree(d, cfg)
		if err != nil {
			return nil, fmt.Errorf("bintree: tree %d: %w", i, err)
		}
		f.trees = append(f.trees, t)
	}
	return f, nil
}

// config reads and checks the split rule every tree of a file or message
// shares. Values no encoder writes are refused: a file that lowered
// MinCount or raised MaxDepth would let its trees grow past the rule they
// were built under.
func (d *decoder) config() (Config, error) {
	cfg := Config{SplitSigma: d.f64(), MinCount: d.i64(), MaxDepth: int(d.i64())}
	switch {
	case d.err != nil:
		return cfg, d.err
	case !(cfg.SplitSigma > 0) || math.IsInf(cfg.SplitSigma, 1):
		return cfg, fmt.Errorf("bintree: invalid SplitSigma %g", cfg.SplitSigma)
	case cfg.MinCount < 1:
		return cfg, fmt.Errorf("bintree: invalid MinCount %d", cfg.MinCount)
	case cfg.MaxDepth < 1 || cfg.MaxDepth > maxDecodeDepth:
		return cfg, fmt.Errorf("bintree: invalid MaxDepth %d", cfg.MaxDepth)
	}
	return cfg, nil
}

// decodeTree reads a tree written by appendTree.
func decodeTree(d *decoder, cfg Config) (*Tree, error) {
	var lo, hi [numAxes]float64
	for a := range lo {
		lo[a] = d.f64()
	}
	for a := range hi {
		hi[a] = d.f64()
	}
	t := &Tree{cfg: cfg, total: d.i64()}
	if d.err != nil {
		return nil, d.err
	}
	for a := 0; a < numAxes; a++ {
		if !(lo[a] < hi[a]) || math.IsNaN(lo[a]) || math.IsNaN(hi[a]) {
			return nil, fmt.Errorf("invalid domain")
		}
	}
	var err error
	t.root, t.nodes, t.leaves, err = decodeNode(d, cfg.MaxDepth, lo, hi, 0)
	return t, err
}

// decoder reads little-endian fields from r through one reused buffer.
// The first failure sticks in err, and every later read returns zero.
type decoder struct {
	r   io.Reader
	buf [8]byte
	err error
}

func (d *decoder) read(n int) []byte {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, d.buf[:n])
	}
	if d.err != nil {
		clear(d.buf[:n])
	}
	return d.buf[:n]
}

func (d *decoder) u8() byte     { return d.read(1)[0] }
func (d *decoder) i64() int64   { return int64(binary.LittleEndian.Uint64(d.read(8))) }
func (d *decoder) f64() float64 { return math.Float64frombits(binary.LittleEndian.Uint64(d.read(8))) }

// decodeNode reads the node at the given nesting depth. A tree never
// nests deeper than its MaxDepth, and every leaf's stored depth must be
// its nesting depth: the split rule reads that depth, so a forged one
// would let the leaf split past MaxDepth.
func decodeNode(d *decoder, maxDepth int, lo, hi [numAxes]float64, depth int) (n *Node, nodes, leaves int, err error) {
	if depth > maxDepth {
		return nil, 0, 0, fmt.Errorf("node nesting deeper than MaxDepth %d", maxDepth)
	}
	n = &Node{lo: lo, hi: hi, depth: depth}
	switch tag := d.u8(); {
	case d.err != nil:
		return nil, 0, 0, d.err
	case tag == 0:
		n.count = d.i64()
		n.power = RGB{R: d.f64(), G: d.f64(), B: d.f64()}
		for a := range n.halfLo {
			n.halfLo[a] = d.i64()
		}
		if stored := d.i64(); d.err == nil && stored != int64(depth) {
			return nil, 0, 0, fmt.Errorf("leaf at depth %d claims depth %d", depth, stored)
		}
		return n, 1, 1, d.err
	case tag == 1:
		axis, at := d.u8(), d.f64()
		if d.err != nil {
			return nil, 0, 0, d.err
		}
		if axis >= numAxes {
			return nil, 0, 0, fmt.Errorf("invalid split axis %d", axis)
		}
		n.splitAxis, n.splitAt = Axis(axis), at
		if n.splitAt <= lo[axis] || n.splitAt >= hi[axis] || math.IsNaN(n.splitAt) {
			return nil, 0, 0, fmt.Errorf("split at %g outside bin [%g,%g)", n.splitAt, lo[axis], hi[axis])
		}
		lhi, rlo := hi, lo
		lhi[axis] = n.splitAt
		rlo[axis] = n.splitAt
		var ln, rn *Node
		var lNodes, lLeaves, rNodes, rLeaves int
		if ln, lNodes, lLeaves, err = decodeNode(d, maxDepth, lo, lhi, depth+1); err != nil {
			return nil, 0, 0, err
		}
		if rn, rNodes, rLeaves, err = decodeNode(d, maxDepth, rlo, hi, depth+1); err != nil {
			return nil, 0, 0, err
		}
		n.left, n.right = ln, rn
		return n, lNodes + rNodes + 1, lLeaves + rLeaves, nil
	default:
		return nil, 0, 0, fmt.Errorf("invalid node tag %d", tag)
	}
}

// MarshalBinary encodes one tree — its config, then the answer-file tree
// layout — for the distributed engines' snapshot messages. The float bits
// travel verbatim, so a decoded tree fingerprints identically.
func (t *Tree) MarshalBinary() ([]byte, error) {
	b := appendFloats(nil, t.cfg.SplitSigma)
	return appendTree(appendInts(b, t.cfg.MinCount, int64(t.cfg.MaxDepth)), t), nil
}

// UnmarshalBinary decodes a tree written by MarshalBinary; data must hold
// exactly one tree.
func (t *Tree) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	d := &decoder{r: r}
	cfg, err := d.config()
	if err != nil {
		return err
	}
	tree, err := decodeTree(d, cfg)
	if err != nil {
		return fmt.Errorf("bintree: tree: %w", err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("bintree: %d bytes after the tree", r.Len())
	}
	*t = *tree
	return nil
}
