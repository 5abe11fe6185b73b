package main

import (
	"encoding/binary"
	"hash/crc32"
	"math"

	"toc/internal/storage"
)

// paramsCRC is the CRC-32 of the parameters' little-endian float bits,
// the identity toctrain prints.
func paramsCRC(params []float64) uint32 {
	buf := make([]byte, 8*len(params))
	for i, p := range params {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(p))
	}
	return crc32.ChecksumIEEE(buf)
}

// checkCycle checks a cycle's training outputs: every loss is finite;
// on the engine workloads the first epoch's per-update losses match
// the DEN reference run's within lossTol; on dist every schedule
// position was applied exactly once.
func (e *env) checkCycle(c *cycle) {
	c.attempted += int64(len(c.losses))
	for i, l := range c.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			c.fail("update %d: non-finite loss %v", c.steps[i], l)
		}
	}
	c.attempted++
	for _, l := range c.epochLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			c.fail("non-finite epoch loss %v", l)
			break
		}
	}
	c.attempted++
	if len(c.epochLoss) != e.w.epochs {
		c.fail("%d epoch losses, want %d", len(c.epochLoss), e.w.epochs)
	}
	want := e.w.epochs * e.updatesPerEpoch()
	c.attempted++
	if len(c.losses) != want {
		c.fail("%d updates applied, want %d", len(c.losses), want)
	}
	if e.w.dist {
		c.attempted++
		seen := make([]bool, want)
		for _, p := range c.steps {
			if p < 0 || p >= int64(want) || seen[p] {
				c.fail("schedule position %d applied twice or out of range", p)
				break
			}
			seen[p] = true
		}
		c.attempted++
		if c.server.Updates != int64(want) {
			c.fail("server applied %d updates, want epochs x batches = %d", c.server.Updates, want)
		}
		return
	}
	first := e.updatesPerEpoch()
	c.attempted++
	if len(c.losses) < first || len(e.refLoss) < first {
		c.fail("%d updates, reference %d, fewer than one epoch (%d)", len(c.losses), len(e.refLoss), first)
		return
	}
	for i, ref := range e.refLoss[:first] {
		if d := math.Abs(c.losses[i] - ref); !(d <= lossTol*math.Max(1, math.Abs(ref))) {
			c.fail("update %d: loss %v differs from the DEN reference %v by %g", i, c.losses[i], ref, d)
			return
		}
	}
}

// checkDecode reads every stored batch back (spilled ones from disk) and
// checks that it decodes bitwise to its generated rows and labels.
func (e *env) checkDecode(c *cycle, st *storage.Store) {
	for i := 0; i < st.NumBatches(); i++ {
		c.attempted++
		x, y, err := st.TryBatch(i)
		if err != nil {
			c.fail("batch %d: %v", i, err)
			continue
		}
		wantX, wantY := e.d.Batch(i, e.w.batch)
		got := x.Decode()
		if got.Rows() != wantX.Rows() || got.Cols() != wantX.Cols() || len(y) != len(wantY) {
			c.fail("batch %d: decoded shape %dx%d/%d, want %dx%d/%d", i,
				got.Rows(), got.Cols(), len(y), wantX.Rows(), wantX.Cols(), len(wantY))
			continue
		}
		if !sameBits(got.Data(), wantX.Data()) || !sameBits(y, wantY) {
			c.fail("batch %d: decoded rows differ from the generated rows", i)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
