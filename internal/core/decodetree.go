package core

import (
	"sync"
	"sync/atomic"
)

// Algorithm 2: build the prefix tree C' used for decoding and for the
// compressed matrix kernels. C' is a simplified variant of the encoding
// tree C: every node stores its key and the index of its parent, but no
// child links (Table 4). It is rebuilt from I and D by replaying how
// Algorithm 1 grew the tree: scanning D, every element of a tuple except
// the last one caused exactly one AddNode during encoding.

// DecodeTree is C'. Index 0 is the root; Key[0] and Parent[0] are unused.
type DecodeTree struct {
	Key    []Pair   // Key[i]: the column-index:value pair of node i
	Parent []uint32 // Parent[i]: index of node i's parent (0 = root child)
	first  []Pair   // F[i]: first pair of the sequence represented by node i
}

// Len returns the number of nodes including the root.
func (t *DecodeTree) Len() int { return len(t.Key) }

// Seq reconstructs the full pair sequence represented by node idx by
// backtracking parent links (the sequence definition of §3.1.1). One
// counting walk sizes the result exactly, then a second walk fills it
// back to front — a single allocation, no reverse buffer.
func (t *DecodeTree) Seq(idx uint32) []Pair {
	n := 0
	for i := idx; i != 0; i = t.Parent[i] {
		n++
	}
	seq := make([]Pair, n)
	for i := idx; i != 0; i = t.Parent[i] {
		n--
		seq[n] = t.Key[i]
	}
	return seq
}

// dTable is the flattened encoded table D: Nodes holds every tuple's node
// indexes concatenated, Starts[i] is the offset of tuple i (len rows+1,
// with Starts[rows] == len(Nodes)). This is also the physical layout of D
// in Figure 3 ("tree node indexes" + "tuple start indexes").
type dTable struct {
	Nodes  []uint32
	Starts []uint32
}

func (d dTable) rows() int { return len(d.Starts) - 1 }

// row returns tuple i's node indexes (aliased).
func (d dTable) row(i int) []uint32 { return d.Nodes[d.Starts[i]:d.Starts[i+1]] }

// opScratch holds reusable buffers for the per-operation tree build and
// accumulator vectors. Rebuilding C' on every op is the paper's model
// (its O(|I|+|D|) cost is part of every kernel's complexity), but the
// backing memory is pooled so the allocator does not dominate the kernels.
type opScratch struct {
	pairs   []Pair
	parents []uint32
	floats  []float64
	gather  []float64
	tree    DecodeTree
}

var scratchPool = sync.Pool{New: func() any { return new(opScratch) }}

// floatBuf returns a zeroed accumulator of length n backed by the arena.
func (s *opScratch) floatBuf(n int) []float64 {
	if cap(s.floats) < n {
		s.floats = make([]float64, n)
	}
	buf := s.floats[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// gatherBuf returns an uninitialized buffer of length n from a second
// arena, disjoint from floatBuf's. Used by matMulTree to stage one column
// of M contiguously; callers overwrite it fully before reading.
func (s *opScratch) gatherBuf(n int) []float64 {
	if cap(s.gather) < n {
		s.gather = make([]float64, n)
	}
	return s.gather[:n]
}

// buildTree builds C' into the arena; the result is valid until the
// arena is reused.
func (s *opScratch) buildTree(I []Pair, D dTable) *DecodeTree {
	size := treeSize(I, D)
	if cap(s.pairs) < 2*size {
		s.pairs = make([]Pair, 2*size)
	}
	if cap(s.parents) < size {
		s.parents = make([]uint32, size)
	}
	s.tree = DecodeTree{
		Key:    s.pairs[:size],
		Parent: s.parents[:size],
		first:  s.pairs[size : 2*size],
	}
	// Reused buffers carry stale data; the build overwrites every node
	// from index 1, and index 0 (the root) must be explicitly cleared
	// because VecMul/MatMul read Parent values.
	s.tree.Key[0] = Pair{}
	s.tree.Parent[0] = 0
	s.tree.first[0] = Pair{}
	fillPrefixTree(&s.tree, I, D)
	return &s.tree
}

// treeSize computes |C'|: root + first layer + one node per non-final
// tuple element, i.e. 1 + |I| + (|D.Nodes| - rows-with-elements).
func treeSize(I []Pair, D dTable) int {
	rows := D.rows()
	starts := D.Starts
	extra := 0
	for i := 0; i < rows; i++ {
		if n := int(starts[i+1] - starts[i]); n > 0 {
			extra += n - 1
		}
	}
	return 1 + len(I) + extra
}

// BuildPrefixTree implements Algorithm 2: phase I initializes C' (and the
// first-pair array F) from I; phase II scans D, adding one node per tuple
// element except the last, mimicking how Algorithm 1 built C.
func BuildPrefixTree(I []Pair, D dTable) *DecodeTree {
	size := treeSize(I, D)
	backing := make([]Pair, 2*size)
	t := &DecodeTree{
		Key:    backing[:size],
		Parent: make([]uint32, size),
		first:  backing[size:],
	}
	fillPrefixTree(t, I, D)
	return t
}

// treeBuilds counts every C' build in the process — the white-box
// counter that proves KernelPlan amortizes the per-op rebuild (one build
// per batch-step in the ml layer instead of one per kernel call).
var treeBuilds atomic.Uint64

// TreeBuilds returns the cumulative number of decode-tree (C') builds.
func TreeBuilds() uint64 { return treeBuilds.Load() }

func fillPrefixTree(t *DecodeTree, I []Pair, D dTable) {
	treeBuilds.Add(1)
	rows := D.rows()
	starts := D.Starts

	// Phase I: initialize with I (lines 4-7). Parents of the first layer
	// are the root; the explicit clear matters when t reuses pooled
	// buffers that carry stale values.
	copy(t.Key[1:], I)
	copy(t.first[1:], I)
	for i := 1; i <= len(I); i++ {
		t.Parent[i] = 0
	}

	// Phase II: build C' from D (lines 8-14). Order matters: F of the new
	// node is set before its key is read, because the key references
	// F[D[i][j+1]] which may be the node being added (self-reference when a
	// tuple repeats its own just-added sequence).
	idx := len(I) + 1
	nodes := D.Nodes
	key, first, parent := t.Key, t.first, t.Parent
	for i := 0; i < rows; i++ {
		end := int(starts[i+1]) - 1
		for j := int(starts[i]); j < end; j++ {
			p := nodes[j]
			parent[idx] = p
			first[idx] = first[p]
			key[idx] = first[nodes[j+1]]
			idx++
		}
	}
}
