package core

import "math"

// The encoding prefix tree of §3.1.1. Every node except the root stores a
// column-index:value pair as its key and represents the sequence of keys on
// the path from the root to itself. Node indexes are assigned from a
// sequence number: the root takes 0, the first added node 1, and so on.
//
// The encoder never materialises the tree. Its two lookups are two flat
// open-addressing tables with integer keys:
//
//   - pairTable interns every column-index:value pair to a dense id in
//     first-appearance order, keyed on (column, float64 bit pattern). Phase I
//     of Algorithm 1 adds the unique pairs to the root in exactly that
//     order, so pair id p is first-layer node p+1 and interning *is* phase I.
//   - childTable is GetIndex for every deeper node (Blelloch's technique the
//     paper cites): one shared table from (parent index, child pair id) to
//     child index, the key packed into one uint64.
//
// Both use linear probing at a load factor of at most 1/2 and Fibonacci
// hashing (multiply, keep the top bits). They double when half full, and
// a pooled table keeps its size for the next batch, so the steady state
// neither allocates nor rehashes.

const (
	minTableBits = 6
	fibMul       = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	colMul       = 0xC2B2AE3D27D4EB4F // spreads the column across all 64 bits
)

// tableBits returns the table size exponent for a batch that may add up to
// bound entries: pooled tables stay at the size they grew to (have bits)
// unless the batch is small enough to need fewer slots.
func tableBits(have, bound int) int {
	need := minTableBits
	for need < have && 1<<need < 2*bound {
		need++
	}
	return need
}

type pairSlot struct {
	bits uint64 // math.Float64bits of the value
	col  uint32
	id   uint32 // pair id + 1; 0 marks an empty slot
}

// pairTable interns column-index:value pairs. Values are compared by bit
// pattern, so every NaN payload is a key of its own and a batch holding
// NaN encodes losslessly.
type pairTable struct {
	slots []pairSlot
	shift uint   // 64 - log2(len(slots))
	pairs []Pair // pairs[id]: the first layer I, in first-appearance order
}

func (t *pairTable) reset(bound int) {
	t.resize(tableBits(bitsOf(len(t.slots)), bound))
	t.pairs = t.pairs[:0]
}

// resize empties the table and gives it 1<<bits slots.
func (t *pairTable) resize(bits int) {
	t.slots = emptySlots(t.slots, bits)
	t.shift = uint(64 - bits)
}

func pairHash(col uint32, bits uint64) uint64 {
	return (bits ^ uint64(col)*colMul) * fibMul
}

// intern returns the id of (col, v), adding the pair if it is new.
func (t *pairTable) intern(col uint32, v float64) uint32 {
	bits := math.Float64bits(v)
	mask := uint64(len(t.slots) - 1)
	for i := pairHash(col, bits) >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.id == 0 {
			id := uint32(len(t.pairs))
			t.pairs = append(t.pairs, Pair{Col: col, Val: v})
			*s = pairSlot{bits: bits, col: col, id: id + 1}
			if 2*len(t.pairs) > len(t.slots) {
				t.grow()
			}
			return id
		}
		if s.bits == bits && s.col == col {
			return s.id - 1
		}
	}
}

// grow doubles the table and reinserts every pair under its id.
func (t *pairTable) grow() {
	t.resize(bitsOf(len(t.slots)) + 1)
	mask := uint64(len(t.slots) - 1)
	for id, p := range t.pairs {
		bits := math.Float64bits(p.Val)
		i := pairHash(p.Col, bits) >> t.shift
		for t.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = pairSlot{bits: bits, col: p.Col, id: uint32(id) + 1}
	}
}

type childSlot struct {
	key  uint64 // parent<<32 | pair id; parent >= 1, so 0 marks an empty slot
	node uint32
}

// childTable maps (parent node, child pair id) to the child's node index
// for every node below the first layer.
type childTable struct {
	slots []childSlot
	shift uint
	n     int
}

func (t *childTable) reset(bound int) {
	t.resize(tableBits(bitsOf(len(t.slots)), bound))
}

func (t *childTable) resize(bits int) {
	t.slots = emptySlots(t.slots, bits)
	t.shift = uint(64 - bits)
	t.n = 0
}

// getOrAdd returns the child of parent with pair id pid. When there is
// none it adds node as that child and reports false: Algorithm 1 adds a
// node exactly where its longest match ends, so the failed lookup and the
// AddNode probe the same slot.
func (t *childTable) getOrAdd(parent, pid, node uint32) (uint32, bool) {
	key := uint64(parent)<<32 | uint64(pid)
	mask := uint64(len(t.slots) - 1)
	for i := key * fibMul >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.key == key {
			return s.node, true
		}
		if s.key == 0 {
			*s = childSlot{key: key, node: node}
			t.n++
			if 2*t.n > len(t.slots) {
				t.grow()
			}
			return node, false
		}
	}
}

func (t *childTable) grow() {
	old := t.slots
	t.slots = nil // the old array is still being read
	t.resize(bitsOf(len(old)) + 1)
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := s.key * fibMul >> t.shift
		for t.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.n++
	}
}

// emptySlots returns 1<<bits zeroed slots, reusing the array of s when it
// is large enough.
func emptySlots[T any](s []T, bits int) []T {
	n := 1 << bits
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// bitsOf returns log2(n) for a power of two n, and 0 for n == 0.
func bitsOf(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}
