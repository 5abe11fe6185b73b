package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"toc/internal/data"
	"toc/internal/matrix"
	"toc/internal/testutil"
)

// oracleEncode is Algorithm 1 written as directly as the paper states it:
// a tree whose GetIndex is a hash map from (parent index, child key) to
// child index. It is the reference the flat-table encoder must reproduce
// bit for bit. Like the paper's algorithm it assumes every pair is found
// again by equality, so it cannot encode NaN.
func oracleEncode(b []SparseRow) (I []Pair, D [][]uint32) {
	type childKey struct {
		parent uint32
		key    Pair
	}
	keys := make([]Pair, 1) // keys[i] is the key of node i; the root is 0
	children := make(map[childKey]uint32)
	addNode := func(n uint32, k Pair) {
		children[childKey{n, k}] = uint32(len(keys))
		keys = append(keys, k)
	}
	for _, t := range b { // phase I
		for _, p := range t {
			if _, ok := children[childKey{0, p}]; !ok {
				addNode(0, p)
			}
		}
	}
	firstLayer := len(keys) - 1
	D = make([][]uint32, len(b))
	for ti, t := range b { // phase II
		d := make([]uint32, 0, len(t))
		for i := 0; i < len(t); {
			n, j := children[childKey{0, t[i]}], i+1
			for ; j < len(t); j++ {
				next, ok := children[childKey{n, t[j]}]
				if !ok {
					break
				}
				n = next
			}
			d = append(d, n)
			if j < len(t) {
				addNode(n, t[j])
			}
			i = j
		}
		D[ti] = d
	}
	return slices.Clone(keys[1 : firstLayer+1]), D
}

func flattenD(D [][]uint32) dTable {
	starts := make([]uint32, 1, len(D)+1)
	var nodes []uint32
	for _, d := range D {
		nodes = append(nodes, d...)
		starts = append(starts, uint32(len(nodes)))
	}
	return dTable{Nodes: nodes, Starts: starts}
}

// oracleBatch compresses m with the oracle encoder.
func oracleBatch(m *matrix.Dense, v Variant) *Batch {
	I, D := oracleEncode(SparseEncode(m))
	b := &Batch{rows: m.Rows(), cols: m.Cols(), variant: v, i: I, d: flattenD(D)}
	b.img = b.buildImage()
	return b
}

func pairsBitsEqual(a, b []Pair) bool {
	return slices.EqualFunc(a, b, func(x, y Pair) bool {
		return x.Col == y.Col && math.Float64bits(x.Val) == math.Float64bits(y.Val)
	})
}

// checkMatchesOracle asserts that Compress and the oracle agree on I, D
// and the physical image of both logical variants.
func checkMatchesOracle(t *testing.T, name string, m *matrix.Dense) {
	t.Helper()
	for _, v := range []Variant{Full, SparseLogical} {
		got, want := CompressVariant(m, v), oracleBatch(m, v)
		if !pairsBitsEqual(got.i, want.i) {
			t.Fatalf("%s %v: I differs from the oracle: %d vs %d pairs", name, v, len(got.i), len(want.i))
		}
		if !slices.Equal(got.d.Nodes, want.d.Nodes) || !slices.Equal(got.d.Starts, want.d.Starts) {
			t.Fatalf("%s %v: D differs from the oracle", name, v)
		}
		if !bytes.Equal(got.Serialize(), want.Serialize()) {
			t.Fatalf("%s %v: image differs from the oracle", name, v)
		}
	}
}

// TestEncoderMatchesOracle runs the pooled encoder over batches of every
// shape in one goroutine, so each batch finds tables left dirty, grown or
// oversized by the one before.
func TestEncoderMatchesOracle(t *testing.T) {
	checkMatchesOracle(t, "figure3", figure3Input())
	for _, ds := range []string{"census", "mnist", "kdd99", "rcv1"} {
		for _, rows := range []int{1, 100, 250, 1000} {
			d, err := data.Generate(ds, rows, int64(rows))
			if err != nil {
				t.Fatal(err)
			}
			checkMatchesOracle(t, fmt.Sprintf("%s/%d", ds, rows), d.X)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range [][2]int{{0, 0}, {3, 0}, {5, 8}, {64, 16}, {250, 68}, {700, 90}} {
		checkMatchesOracle(t, fmt.Sprintf("redundant/%v", s), redundantMatrix(rng, s[0], s[1], 0.4, 5))
		// Unique values: every pair is new, so both tables grow.
		u := matrix.NewDense(s[0], s[1])
		fillRand(rng, u)
		checkMatchesOracle(t, fmt.Sprintf("unique/%v", s), u)
	}
	checkMatchesOracle(t, "zeros", matrix.NewDense(6, 9))
	// Hundreds of values one ulp apart per column: probe chains pass
	// over keys that differ only in their lowest bits.
	ulps := matrix.NewDense(500, 4)
	for i := range ulps.Data() {
		ulps.Data()[i] = math.Float64frombits(math.Float64bits(1) + uint64(i*7%300))
	}
	checkMatchesOracle(t, "ulps", ulps)
}

// TestPrefixTreeEncodeMatchesOracle covers the exported sparse-table entry
// point, including tuples that repeat a pair (see TestSelfReferencingCode).
func TestPrefixTreeEncodeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		b := make([]SparseRow, rng.Intn(12))
		for i := range b {
			b[i] = make(SparseRow, rng.Intn(10))
			for k := range b[i] {
				b[i][k] = Pair{Col: uint32(rng.Intn(3)), Val: float64(rng.Intn(3))}
			}
		}
		I, D := PrefixTreeEncode(b)
		wantI, wantD := oracleEncode(b)
		if !pairsBitsEqual(I, wantI) {
			t.Fatalf("trial %d: I = %v, want %v", trial, I, wantI)
		}
		got, want := flattenD(D), flattenD(wantD)
		if !slices.Equal(got.Nodes, want.Nodes) || !slices.Equal(got.Starts, want.Starts) {
			t.Fatalf("trial %d: D = %v, want %v", trial, D, wantD)
		}
	}
}

// TestCompressConcurrent compresses batches of different shapes from
// several goroutines at once, so pooled encoders pass between them; run
// it under -race.
func TestCompressConcurrent(t *testing.T) {
	var inputs []*matrix.Dense
	var want [][]byte
	for i, ds := range []string{"census", "mnist", "kdd99", "rcv1"} {
		d, err := data.Generate(ds, 60+40*i, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, d.X)
		want = append(want, oracleBatch(d.X, Full).Serialize())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(inputs)
				if !bytes.Equal(Compress(inputs[i]).Serialize(), want[i]) {
					t.Errorf("goroutine %d: batch %d differs from the oracle", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// bitsEqualDense compares two matrices bit for bit, so NaN payloads count.
func bitsEqualDense(a, b *matrix.Dense) bool {
	return a.Rows() == b.Rows() && a.Cols() == b.Cols() &&
		slices.EqualFunc(a.Data(), b.Data(), func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		})
}

// checkLossless asserts that every variant of m decodes to want bit for
// bit, directly and through its physical image.
func checkLossless(t *testing.T, m, want *matrix.Dense) {
	t.Helper()
	for _, v := range allVariants {
		b := CompressVariant(m, v)
		if !bitsEqualDense(b.Decode(), want) {
			t.Fatalf("%v: Decode is not bitwise equal to the input", v)
		}
		img := b.Serialize()
		r, err := Deserialize(img)
		if err != nil {
			t.Fatalf("%v: Deserialize: %v", v, err)
		}
		if !bytes.Equal(r.Serialize(), img) {
			t.Fatalf("%v: Deserialize(Serialize()) does not reproduce the image", v)
		}
		if !bitsEqualDense(r.Decode(), want) {
			t.Fatalf("%v: Decode after Deserialize is not bitwise equal to the input", v)
		}
	}
}

// TestCompressNonFinite is the regression test for non-finite input: a
// NaN pair used to miss the first-layer lookup and panic. Values that
// differ only in their lowest bits must stay distinct pairs.
func TestCompressNonFinite(t *testing.T) {
	nan1 := math.Float64frombits(0x7FF8000000000001)
	nan2 := math.Float64frombits(0x7FF8000000000002)
	nan3 := math.Float64frombits(0xFFF8000000000abc)
	inf := math.Inf(1)
	one, next := 1.0, math.Nextafter(1, 2)
	m := matrix.NewDenseFromRows([][]float64{
		{nan1, 2, inf, 0, nan2, one},
		{nan1, 2, inf, 0, nan2, one},
		{nan2, 2, -inf, 1, nan1, next},
		{0, 2, inf, 1, nan3, next},
		{nan1, nan1, nan2, nan3, -inf, one},
	})
	checkLossless(t, m, m)
}

// fuzzPalette holds the values a fuzzed cell can take: few enough that
// rows share long pair sequences, with zeros of both signs, extremes,
// values one bit apart and three distinct NaN payloads.
var fuzzPalette = [16]float64{
	0, 0, 0, 1, math.Nextafter(1, 2), 2, 0.5, -3,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1),
	math.Float64frombits(0x7FF8000000000001),
	math.Float64frombits(0x7FF8000000000002),
	math.Float64frombits(0xFFF0000000000003),
}

// fuzzMatrix maps bytes to a matrix of at most 16x16: the first two bytes
// pick the shape, every further byte one cell in row-major order.
func fuzzMatrix(in []byte) *matrix.Dense {
	if len(in) < 2 {
		return matrix.NewDense(0, 0)
	}
	m := matrix.NewDense(int(in[0]%17), int(in[1]%17))
	cells := m.Data()
	for i, c := range in[2:] {
		if i == len(cells) {
			break
		}
		cells[i] = fuzzPalette[c%16]
	}
	return m
}

// FuzzCompress drives arbitrary small matrices through every variant. The
// contract: Decode returns the input bit for bit, except that -0 comes
// back as 0 (the sparse layer drops both zeros), and the image survives
// Deserialize unchanged. Seed corpus lives in testdata/fuzz/FuzzCompress.
func FuzzCompress(f *testing.F) {
	f.Add([]byte{4, 4, 3, 4, 5, 0, 3, 4, 5, 0, 0, 3, 5, 6, 3, 4, 0, 0})
	f.Add([]byte{3, 5, 12, 13, 14, 9, 10, 12, 13, 14, 9, 10, 12, 11, 14, 9, 10})
	f.Fuzz(func(t *testing.T, in []byte) {
		m := fuzzMatrix(in)
		want := m.Clone()
		for i, v := range want.Data() {
			if v == 0 {
				want.Data()[i] = 0
			}
		}
		checkLossless(t, m, want)
		if !slices.ContainsFunc(m.Data(), math.IsNaN) {
			checkMatchesOracle(t, "fuzz", m)
		}
	})
}

// TestCompressAllocs pins the allocation count of compressing a census
// batch. The map-based encoder made about 1,900 allocations per batch; the
// pooled flat-table encoder makes 38: four for the Batch, I, Nodes and
// Starts, the rest for the physical image (bit-packed sections and the
// value index's map). The budget leaves room for a pool miss or two.
func TestCompressAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	d, err := data.Generate("census", 250, 1)
	if err != nil {
		t.Fatal(err)
	}
	Compress(d.X) // warm the pool
	const budget = 40
	if got := testing.AllocsPerRun(20, func() { Compress(d.X) }); got > budget {
		t.Errorf("Compress allocates %.0f objects per census batch, want <= %d", got, budget)
	}
}
