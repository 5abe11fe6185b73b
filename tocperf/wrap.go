package main

import (
	"fmt"
	"io"
	"sync"

	"toc/internal/dist"
	"toc/internal/engine"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/ml"
)

// The wrappers below record spans around the calls the program makes
// into each layer's public interfaces. Each wrapper implements exactly
// the optional interfaces its wrapped value implements, so the program
// takes the same branches with and without tracing.

// tmat traces the kernels and serialization of one compressed
// mini-batch. batch is the schedule index it was served under and
// parent the ml.grad span it is used in (noSpan when unknown).
type tmat struct {
	inner  formats.CompressedMatrix
	tr     *tracer
	batch  int32
	parent int32
}

// ptmat is a tmat whose batch shards its kernels (formats.ParallelOps).
type ptmat struct {
	*tmat
	par formats.ParallelOps
}

// wrapMatrix wraps x (unwrapping an earlier wrapper first) for batch
// and parent.
func wrapMatrix(tr *tracer, x formats.CompressedMatrix, batch, parent int32) formats.CompressedMatrix {
	inner := unwrapMatrix(x)
	t := &tmat{inner: inner, tr: tr, batch: batch, parent: parent}
	if p, ok := inner.(formats.ParallelOps); ok {
		return &ptmat{tmat: t, par: p}
	}
	return t
}

func unwrapMatrix(x formats.CompressedMatrix) formats.CompressedMatrix {
	switch w := x.(type) {
	case *tmat:
		return w.inner
	case *ptmat:
		return w.inner
	}
	return x
}

// batchOf returns the schedule index a wrapped batch was served under.
func batchOf(x formats.CompressedMatrix) int32 {
	switch w := x.(type) {
	case *tmat:
		return w.batch
	case *ptmat:
		return w.batch
	}
	return noSpan
}

func (m *tmat) Rows() int             { return m.inner.Rows() }
func (m *tmat) Cols() int             { return m.inner.Cols() }
func (m *tmat) CompressedSize() int   { return m.inner.CompressedSize() }
func (m *tmat) Decode() *matrix.Dense { return m.inner.Decode() }

func (m *tmat) Serialize() []byte {
	id := m.tr.begin(kSerialize, m.tr.phase.Load(), m.batch)
	img := m.inner.Serialize()
	m.tr.end(id, int64(len(img)))
	return img
}

func (m *tmat) Scale(c float64) formats.CompressedMatrix {
	return wrapMatrix(m.tr, m.inner.Scale(c), m.batch, m.parent)
}

func (m *tmat) MulVec(v []float64) []float64 {
	id := m.tr.begin(kMulVec, m.parent, m.batch)
	r := m.inner.MulVec(v)
	m.tr.end(id, 1)
	return r
}

func (m *tmat) VecMul(v []float64) []float64 {
	id := m.tr.begin(kVecMul, m.parent, m.batch)
	r := m.inner.VecMul(v)
	m.tr.end(id, 1)
	return r
}

func (m *tmat) MulMat(d *matrix.Dense) *matrix.Dense {
	id := m.tr.begin(kMulMat, m.parent, m.batch)
	r := m.inner.MulMat(d)
	m.tr.end(id, int64(d.Cols()))
	return r
}

func (m *tmat) MatMul(d *matrix.Dense) *matrix.Dense {
	id := m.tr.begin(kMatMul, m.parent, m.batch)
	r := m.inner.MatMul(d)
	m.tr.end(id, int64(d.Rows()))
	return r
}

func (m *ptmat) MulVecParallel(v []float64, workers int) []float64 {
	id := m.tr.begin(kMulVec, m.parent, m.batch)
	r := m.par.MulVecParallel(v, workers)
	m.tr.end(id, 1)
	return r
}

func (m *ptmat) VecMulParallel(v []float64, workers int) []float64 {
	id := m.tr.begin(kVecMul, m.parent, m.batch)
	r := m.par.VecMulParallel(v, workers)
	m.tr.end(id, 1)
	return r
}

func (m *ptmat) MulMatParallel(d *matrix.Dense, workers int) *matrix.Dense {
	id := m.tr.begin(kMulMat, m.parent, m.batch)
	r := m.par.MulMatParallel(d, workers)
	m.tr.end(id, int64(d.Cols()))
	return r
}

func (m *ptmat) MatMulParallel(d *matrix.Dense, workers int) *matrix.Dense {
	id := m.tr.begin(kMatMul, m.parent, m.batch)
	r := m.par.MatMulParallel(d, workers)
	m.tr.end(id, int64(d.Rows()))
	return r
}

func (m *ptmat) NewKernelPlan() formats.KernelPlan {
	id := m.tr.begin(kPlan, m.parent, m.batch)
	inner := m.par.NewKernelPlan()
	m.tr.end(id, 0)
	p := &tplan{inner: inner, tr: m.tr, batch: m.batch, parent: m.parent}
	if into, ok := inner.(formats.KernelPlanInto); ok {
		return &tplanInto{tplan: p, into: into}
	}
	return p
}

// tplan traces the kernels of one kernel plan.
type tplan struct {
	inner  formats.KernelPlan
	tr     *tracer
	batch  int32
	parent int32
}

// tplanInto is a tplan whose kernels write into caller-owned buffers
// (formats.KernelPlanInto).
type tplanInto struct {
	*tplan
	into formats.KernelPlanInto
}

func (p *tplan) MulVec(v []float64, workers int) []float64 {
	id := p.tr.begin(kMulVec, p.parent, p.batch)
	r := p.inner.MulVec(v, workers)
	p.tr.end(id, 1)
	return r
}

func (p *tplan) VecMul(v []float64, workers int) []float64 {
	id := p.tr.begin(kVecMul, p.parent, p.batch)
	r := p.inner.VecMul(v, workers)
	p.tr.end(id, 1)
	return r
}

func (p *tplan) MulMat(d *matrix.Dense, workers int) *matrix.Dense {
	id := p.tr.begin(kMulMat, p.parent, p.batch)
	r := p.inner.MulMat(d, workers)
	p.tr.end(id, int64(d.Cols()))
	return r
}

func (p *tplan) MatMul(d *matrix.Dense, workers int) *matrix.Dense {
	id := p.tr.begin(kMatMul, p.parent, p.batch)
	r := p.inner.MatMul(d, workers)
	p.tr.end(id, int64(d.Rows()))
	return r
}

func (p *tplanInto) MulVecInto(dst, v []float64, workers int) []float64 {
	id := p.tr.begin(kMulVec, p.parent, p.batch)
	r := p.into.MulVecInto(dst, v, workers)
	p.tr.end(id, 1)
	return r
}

func (p *tplanInto) VecMulInto(dst, v []float64, workers int) []float64 {
	id := p.tr.begin(kVecMul, p.parent, p.batch)
	r := p.into.VecMulInto(dst, v, workers)
	p.tr.end(id, 1)
	return r
}

func (p *tplanInto) MulMatInto(dst, d *matrix.Dense, workers int) *matrix.Dense {
	id := p.tr.begin(kMulMat, p.parent, p.batch)
	r := p.into.MulMatInto(dst, d, workers)
	p.tr.end(id, int64(d.Cols()))
	return r
}

func (p *tplanInto) MatMulInto(dst, d *matrix.Dense, workers int) *matrix.Dense {
	id := p.tr.begin(kMatMul, p.parent, p.batch)
	r := p.into.MatMulInto(dst, d, workers)
	p.tr.end(id, int64(d.Rows()))
	return r
}

// tracedCodec returns a store codec that records compress spans (parent:
// the open phase span) and deserialize spans around base, and whose
// encoded batches record their serialize spans.
func tracedCodec(tr *tracer, base formats.Codec) (formats.Encoder, formats.Decoder) {
	enc := func(d *matrix.Dense) formats.CompressedMatrix {
		id := tr.begin(kCompress, tr.phase.Load(), noSpan)
		x := base.Encode(d)
		tr.end(id, int64(8*d.Rows()*d.Cols()))
		return wrapMatrix(tr, x, noSpan, noSpan)
	}
	dec := func(img []byte) (formats.CompressedMatrix, error) {
		id := tr.begin(kDeserialize, tr.phase.Load(), noSpan)
		x, err := base.Decode(img)
		tr.end(id, int64(len(img)))
		return x, err
	}
	return enc, dec
}

// tmodel traces gradient, apply and snapshot calls of a model. Every
// model ml.NewModel builds is an ml.SnapshotModel and an
// ml.KernelParallel, so the wrapper implements both.
type tmodel struct {
	inner ml.SnapshotModel
	kp    ml.KernelParallel
	tr    *tracer
}

func wrapModel(tr *tracer, m ml.Model) (*tmodel, error) {
	sm, ok := m.(ml.SnapshotModel)
	if !ok {
		return nil, fmt.Errorf("trace: model %T is not an ml.SnapshotModel", m)
	}
	kp, ok := m.(ml.KernelParallel)
	if !ok {
		return nil, fmt.Errorf("trace: model %T is not an ml.KernelParallel", m)
	}
	return &tmodel{inner: sm, kp: kp, tr: tr}, nil
}

func (m *tmodel) Step(x formats.CompressedMatrix, y []float64, lr float64) float64 {
	return m.inner.Step(unwrapMatrix(x), y, lr)
}
func (m *tmodel) Loss(x formats.CompressedMatrix, y []float64) float64 {
	return m.inner.Loss(unwrapMatrix(x), y)
}
func (m *tmodel) Predict(x formats.CompressedMatrix) []float64 {
	return m.inner.Predict(unwrapMatrix(x))
}
func (m *tmodel) NumParams() int               { return m.inner.NumParams() }
func (m *tmodel) SetParams(p []float64)        { m.inner.SetParams(p) }
func (m *tmodel) SetKernelWorkers(workers int) { m.kp.SetKernelWorkers(workers) }

func (m *tmodel) Grad(x formats.CompressedMatrix, y []float64, out []float64) float64 {
	b := batchOf(x)
	id := m.tr.begin(kGrad, noSpan, b)
	loss := m.inner.Grad(wrapMatrix(m.tr, x, b, id), y, out)
	m.tr.end(id, 0)
	return loss
}

func (m *tmodel) ApplyGrad(g []float64, lr float64) {
	id := m.tr.begin(kApply, noSpan, noSpan)
	m.inner.ApplyGrad(g, lr)
	m.tr.end(id, int64(len(g)))
	m.tr.updates.Add(1)
}

func (m *tmodel) Params(out []float64) {
	id := m.tr.begin(kParams, noSpan, noSpan)
	m.inner.Params(out)
	m.tr.end(id, int64(8*len(out)))
}

func (m *tmodel) Clone() ml.SnapshotModel {
	c, err := wrapModel(m.tr, m.inner.Clone())
	if err != nil {
		panic(err) // a clone implements what its original does
	}
	return c
}

// tsource traces the batch fetches of a batch source.
type tsource struct {
	inner ml.BatchSource
	tr    *tracer
}

// prefetchSource is what the engine type-asserts on a source that
// follows the visit order; storage.Prefetcher implements it.
type prefetchSource interface {
	engine.OrderedSource
	engine.NextOrderedSource
	engine.RequestSource
}

// tprefetch is a tsource over a prefetchSource.
type tprefetch struct {
	*tsource
	pf prefetchSource
}

func wrapSource(tr *tracer, src ml.BatchSource) (ml.BatchSource, error) {
	t := &tsource{inner: src, tr: tr}
	if pf, ok := src.(prefetchSource); ok {
		return &tprefetch{tsource: t, pf: pf}, nil
	}
	_, o := src.(engine.OrderedSource)
	_, n := src.(engine.NextOrderedSource)
	_, r := src.(engine.RequestSource)
	if o || n || r {
		return nil, fmt.Errorf("trace: source %T implements only some of the order hints", src)
	}
	return t, nil
}

func (s *tsource) NumBatches() int { return s.inner.NumBatches() }

func (s *tsource) Batch(i int) (formats.CompressedMatrix, []float64) {
	id := s.tr.begin(kBatch, s.tr.phase.Load(), int32(i))
	x, y := s.inner.Batch(i)
	s.tr.end(id, int64(x.CompressedSize()))
	return wrapMatrix(s.tr, x, int32(i), noSpan), y
}

func (s *tprefetch) SetOrder(order []int)     { s.pf.SetOrder(order) }
func (s *tprefetch) SetNextOrder(order []int) { s.pf.SetNextOrder(order) }
func (s *tprefetch) Request(idx int)          { s.pf.Request(idx) }

// tcodec traces a gradient codec; its clones are traced too.
type tcodec struct {
	inner dist.GradCodec
	tr    *tracer
}

func (c *tcodec) Name() string          { return c.inner.Name() }
func (c *tcodec) Clone() dist.GradCodec { return &tcodec{inner: c.inner.Clone(), tr: c.tr} }

func (c *tcodec) EncodeGrad(grad []float64, dst []byte) []byte {
	id := c.tr.begin(kEncodeGrad, noSpan, noSpan)
	out := c.inner.EncodeGrad(grad, dst)
	c.tr.end(id, int64(len(out)-len(dst)))
	return out
}

func (c *tcodec) ReturnGrad(payload []byte) error {
	id := c.tr.begin(kReturnGrad, noSpan, noSpan)
	err := c.inner.ReturnGrad(payload)
	c.tr.end(id, int64(len(payload)))
	return err
}

func (c *tcodec) DecodeGrad(payload []byte, out []float64) error {
	id := c.tr.begin(kDecodeGrad, noSpan, noSpan)
	err := c.inner.DecodeGrad(payload, out)
	c.tr.end(id, int64(len(payload)))
	return err
}

func (c *tcodec) EncodeSnap(params, prev []float64, dst []byte) []byte {
	id := c.tr.begin(kEncodeSnap, noSpan, noSpan)
	out := c.inner.EncodeSnap(params, prev, dst)
	c.tr.end(id, int64(len(out)-len(dst)))
	return out
}

func (c *tcodec) DecodeSnap(payload []byte, params []float64) error {
	id := c.tr.begin(kDecodeSnap, noSpan, noSpan)
	err := c.inner.DecodeSnap(payload, params)
	c.tr.end(id, int64(len(payload)))
	return err
}

// tconn traces a trainer's connection: a dist.rpc span runs from the
// first request bytes written after a reply to the first reply bytes
// read back, the time the trainer waits on the server and the wire.
type tconn struct {
	inner io.ReadWriteCloser
	tr    *tracer

	mu sync.Mutex
	//toc:guardedby mu
	open int32 // the waiting dist.rpc span, noSpan when none
}

func newTconn(tr *tracer, c io.ReadWriteCloser) *tconn {
	return &tconn{inner: c, tr: tr, open: noSpan}
}

func (c *tconn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.open == noSpan {
		c.open = c.tr.begin(kRPC, noSpan, noSpan)
	}
	c.mu.Unlock()
	return c.inner.Write(p)
}

func (c *tconn) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	if n > 0 {
		c.mu.Lock()
		if c.open != noSpan {
			c.tr.end(c.open, int64(n))
			c.open = noSpan
		}
		c.mu.Unlock()
	}
	return n, err
}

func (c *tconn) Close() error { return c.inner.Close() }
