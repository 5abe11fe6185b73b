package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/dist"
	"toc/internal/formats"
	"toc/internal/snappy"
)

const (
	// refBatches caps the mini-batches the reference ratios run on.
	refBatches = 32
	// refRounds is how many alternating rounds each ratio takes the
	// median of; refMin is the least time one side runs per round.
	refRounds = 5
	refMin    = 10 * time.Millisecond
)

// references measures the portable in-run ratios: each layer call
// against a plain reference operation on the same bytes, timed
// alternately on one goroutine. c is a traced cycle of the same run.
func (e *env) references(c *cycle) (map[string]float64, error) {
	m := map[string]float64{}
	codec := formats.MustGetCodec("TOC")
	n := min(refBatches, e.d.NumBatches(e.w.batch))
	var dense [][]byte
	var imgs [][]byte
	var enc []func()
	for i := 0; i < n; i++ {
		x, _ := e.d.Batch(i, e.w.batch)
		buf := make([]byte, 8*len(x.Data()))
		for j, v := range x.Data() {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		dense = append(dense, buf)
		imgs = append(imgs, codec.Encode(x).Serialize())
		enc = append(enc, func() { codec.Encode(x) })
	}

	m["core.compress_vs_snappy"] = pairRatio(
		func() {
			for _, f := range enc {
				f()
			}
		},
		func() {
			for _, b := range dense {
				snappy.Encode(b)
			}
		})
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, f := range enc {
		f()
	}
	runtime.ReadMemStats(&ms1)
	m["core.compress_allocs_per_batch"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)

	var decErr error
	sink := make([]byte, 0, len(imgs[0]))
	m["core.deserialize_vs_memmove"] = pairRatio(
		func() {
			for _, img := range imgs {
				if _, err := codec.Decode(img); err != nil {
					decErr = err
				}
			}
		},
		func() {
			for _, img := range imgs {
				sink = append(sink[:0], img...)
			}
		})
	if decErr != nil {
		return nil, fmt.Errorf("reference deserialize: %w", decErr)
	}

	model, err := e.newModel()
	if err != nil {
		return nil, err
	}
	x, y := e.d.Batch(0, e.w.batch)
	g := make([]float64, model.NumParams())
	model.Grad(codec.Encode(x), y, g)
	params := make([]float64, len(g))
	model.Params(params)
	lr := e.w.lr
	m["ml.apply_vs_axpy"] = pairRatio(
		func() { model.ApplyGrad(g, lr) },
		func() {
			for j, v := range g {
				params[j] -= lr * v
			}
		})

	if e.w.dist {
		gc, err := dist.ParseCodec(distCodec, e.seed)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(g))
		cp := make([]float64, len(g))
		var payload []byte
		m["dist.codec_vs_copy"] = pairRatio(
			func() {
				payload = gc.EncodeGrad(g, payload[:0])
				if err := gc.DecodeGrad(payload, out); err != nil {
					decErr = err
				}
			},
			func() { copy(cp, g) })
		if decErr != nil {
			return nil, fmt.Errorf("reference gradient codec: %w", decErr)
		}
	}

	if c.ckptState != nil {
		img := checkpoint.Encode(c.ckptState)
		per := timeCalls(func() { checkpoint.Encode(c.ckptState) })
		m["checkpoint.encode_ns_per_byte"] = float64(per) / float64(len(img))
	}
	return m, nil
}

// pairRatio is the median over rounds of a's per-call time over b's,
// the two timed alternately, each side for at least refMin per round.
func pairRatio(a, b func()) float64 {
	ca, cb := callsFor(a), callsFor(b)
	rs := make([]float64, refRounds)
	for r := range rs {
		ta := float64(timeN(a, ca)) / float64(ca)
		tb := float64(timeN(b, cb)) / float64(cb)
		rs[r] = ta / tb
	}
	sort.Float64s(rs)
	return rs[len(rs)/2]
}

// timeCalls returns f's median per-call time over refRounds rounds.
func timeCalls(f func()) time.Duration {
	calls := callsFor(f)
	ds := make([]time.Duration, refRounds)
	for r := range ds {
		ds[r] = timeN(f, calls) / time.Duration(calls)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}

// callsFor returns how many calls of f take at least refMin.
func callsFor(f func()) int {
	calls := 1
	for timeN(f, calls) < refMin {
		calls *= 2
	}
	return calls
}

func timeN(f func(), calls int) time.Duration {
	start := time.Now()
	for i := 0; i < calls; i++ {
		f()
	}
	return time.Since(start)
}
