package core

import (
	"sync"

	"toc/internal/matrix"
)

// Algorithm 1: the prefix tree encoding algorithm. It encodes the sparse
// encoded table B into the encoded table D, building the prefix tree C
// along the way. Each tuple is encoded separately (the dictionary is
// shared) so row boundaries are preserved; the compression unit is a whole
// column-index:value pair so column boundaries are preserved (§3.1.3).
//
// The encoder works on integers. One pass interns every pair of B to its
// id (phase I, see tree.go), leaving B as a flat array of pair ids with
// tuple ends; phase II then walks the ids, looks children up in the flat
// child table, and writes D straight into the flat Nodes/Starts layout of
// Figure 3. Only the outputs the Batch keeps (I, Nodes, Starts) are
// allocated per batch; the tables and the id buffer are pooled.

// PrefixTreeEncode runs Algorithm 1 on the sparse encoded table b,
// returning the column-index:value pairs in the first layer of the prefix
// tree (I) and the encoded table (D). I[k] is the key of tree node k+1:
// together with D it suffices to rebuild the full tree (Algorithm 2).
func PrefixTreeEncode(b []SparseRow) (I []Pair, D [][]uint32) {
	I, D, _ = prefixTreeEncode(b, nil)
	return I, D
}

// TraceStep records one iteration of the phase-II while loop of Algorithm
// 1, in the shape of the paper's Table 2.
type TraceStep struct {
	Tuple     int    // which tuple of B this step processed
	I         int    // matching start position within the tuple
	MatchNode uint32 // longest-match tree node index (column "LMFromTree")
	Appended  uint32 // index appended to D[t] (column "App")
	AddedNode uint32 // newly added node index, 0 if AddNode was NOT called
	AddedSeq  []Pair // sequence represented by the added node (nil if none)
}

// PrefixTreeEncodeTrace is PrefixTreeEncode with a step-by-step trace of
// phase II, used to reproduce the paper's Table 2 exactly.
func PrefixTreeEncodeTrace(b []SparseRow) (I []Pair, D [][]uint32, trace []TraceStep) {
	return prefixTreeEncode(b, new(tracer))
}

func prefixTreeEncode(b []SparseRow, tr *tracer) (I []Pair, D [][]uint32, trace []TraceStep) {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	nnz := 0
	for _, t := range b {
		nnz += len(t)
	}
	e.reset(nnz)
	for _, t := range b {
		for _, p := range t {
			e.ids = append(e.ids, e.pairs.intern(p.Col, p.Val))
		}
		e.ends = append(e.ends, uint32(len(e.ids)))
	}
	I, d := e.encode(tr)
	D = make([][]uint32, len(b))
	for i := range D {
		D[i] = d.row(i)
	}
	if tr != nil {
		trace = tr.steps
	}
	return I, D, trace
}

// prefixTreeEncodeDense runs Algorithm 1 on the dense matrix m, reading its
// rows directly instead of through a sparse encoded table.
func prefixTreeEncodeDense(m *matrix.Dense) ([]Pair, dTable) {
	e := encoderPool.Get().(*encoder)
	defer encoderPool.Put(e)
	rows, cols := m.Rows(), m.Cols()
	e.reset(rows * cols)
	data := m.Data()
	for r := 0; r < rows; r++ {
		for c, v := range data[r*cols : (r+1)*cols] {
			if v != 0 {
				e.ids = append(e.ids, e.pairs.intern(uint32(c), v))
			}
		}
		e.ends = append(e.ends, uint32(len(e.ids)))
	}
	return e.encode(nil)
}

// encoder is the pooled scratch of one Algorithm 1 run.
type encoder struct {
	pairs pairTable
	kids  childTable
	ids   []uint32 // pair id of every element of B, tuple after tuple
	ends  []uint32 // ends[t]: offset in ids just past tuple t
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// reset prepares the encoder for a batch of at most nnz pairs.
func (e *encoder) reset(nnz int) {
	e.pairs.reset(nnz)
	e.ids = e.ids[:0]
	e.ends = e.ends[:0]
}

// encode runs phase II (lines 9-17) over the interned tuples and returns
// fresh copies of I and D. tr, when non-nil, records every step.
func (e *encoder) encode(tr *tracer) ([]Pair, dTable) {
	ids := e.ids
	// Every tuple element but the last adds at most one node.
	e.kids.reset(len(ids))
	next := uint32(len(e.pairs.pairs)) + 1 // next node sequence number
	if tr != nil {
		tr.init(e.pairs.pairs)
	}

	// D is written over ids: every code consumes at least one element, so
	// the write position w never passes the read position.
	starts := make([]uint32, 1, len(e.ends)+1)
	w, start := 0, 0
	for t, end := range e.ends {
		tuple := ids[start:end:end]
		for i := 0; i < len(tuple); {
			// Longest match from the tree (lines 21-34): the first-layer
			// node of the pair at i, extended through the child table.
			n, j, added := tuple[i]+1, i+1, uint32(0)
			for ; j < len(tuple); j++ {
				child, ok := e.kids.getOrAdd(n, tuple[j], next)
				if !ok {
					added = next
					next++
					break
				}
				n = child
			}
			if tr != nil {
				tr.step(t, i, n, added, tuple, j)
			}
			ids[w] = n
			w++
			i = j
		}
		starts = append(starts, uint32(w))
		start = int(end)
	}

	I := make([]Pair, len(e.pairs.pairs))
	copy(I, e.pairs.pairs)
	nodes := make([]uint32, w)
	copy(nodes, ids[:w])
	return I, dTable{Nodes: nodes, Starts: starts}
}

// tracer records phase II in the shape of Table 2, keeping each node's
// parent and key so it can spell out the sequence an added node stands for.
type tracer struct {
	steps  []TraceStep
	parent []uint32
	key    []Pair
}

func (tr *tracer) init(first []Pair) {
	tr.key = append([]Pair{{}}, first...)
	tr.parent = make([]uint32, len(tr.key))
}

// step records one match of tuple t starting at position i that ended at
// node n; when added is non-zero, it is the child of n whose key is the
// pair tuple[j].
func (tr *tracer) step(t, i int, n, added uint32, tuple []uint32, j int) {
	s := TraceStep{Tuple: t, I: i, MatchNode: n, Appended: n}
	if added != 0 {
		tr.parent = append(tr.parent, n)
		tr.key = append(tr.key, tr.key[tuple[j]+1])
		s.AddedNode = added
		s.AddedSeq = tr.seq(added)
	}
	tr.steps = append(tr.steps, s)
}

// seq returns the pair sequence represented by node idx.
func (tr *tracer) seq(idx uint32) []Pair {
	var rev []Pair
	for ; idx != 0; idx = tr.parent[idx] {
		rev = append(rev, tr.key[idx])
	}
	seq := make([]Pair, len(rev))
	for i := range rev {
		seq[i] = rev[len(rev)-1-i]
	}
	return seq
}
