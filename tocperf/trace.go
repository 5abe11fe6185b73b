package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"toc/internal/formats"
)

// spanKind names one traced layer boundary.
type spanKind uint8

const (
	kFill spanKind = iota
	kTrain
	kCompress
	kSerialize
	kDeserialize
	kBatch
	kGrad
	kApply
	kParams
	kPlan
	kMulVec
	kVecMul
	kMulMat
	kMatMul
	kEncodeGrad
	kDecodeGrad
	kReturnGrad
	kEncodeSnap
	kDecodeSnap
	kRPC
	numKinds
)

var kindNames = [numKinds]string{
	kFill:        "engine.fill",
	kTrain:       "engine.train",
	kCompress:    "core.compress",
	kSerialize:   "core.serialize",
	kDeserialize: "core.deserialize",
	kBatch:       "engine.batch",
	kGrad:        "ml.grad",
	kApply:       "ml.apply",
	kParams:      "ml.params",
	kPlan:        "core.plan",
	kMulVec:      "core.mulvec",
	kVecMul:      "core.vecmul",
	kMulMat:      "core.mulmat",
	kMatMul:      "core.matmul",
	kEncodeGrad:  "dist.encode_grad",
	kDecodeGrad:  "dist.decode_grad",
	kReturnGrad:  "dist.return_grad",
	kEncodeSnap:  "dist.encode_snap",
	kDecodeSnap:  "dist.decode_snap",
	kRPC:         "dist.rpc",
}

func (k spanKind) String() string { return kindNames[k] }

// noSpan is the parent of a root span and the batch of a span that
// belongs to no mini-batch.
const noSpan = -1

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's origin. update is the number of parameter updates
// applied when the span began, so the spans of one update share it.
// work is the span's unit of work: bytes for codec and I/O spans, the
// result width for kernel spans (1 for vector kernels, the matrix
// operand's other dimension for matrix kernels).
type span struct {
	kind       spanKind
	parent     int32
	batch      int32
	update     int64
	start, end int64
	work       int64
}

// tracer keeps the spans of one run in memory. begin and end may be
// called from any goroutine.
type tracer struct {
	origin  time.Time
	updates atomic.Int64
	// phase is the open engine.fill or engine.train span: the parent of
	// spans recorded on goroutines the benchmark does not own (ingest
	// workers, prefetch readers, the RPC server).
	phase atomic.Int32

	// method is the store method registered for this tracer: the TOC
	// codec with compress and deserialize spans.
	method string

	mu sync.Mutex
	//toc:guardedby mu
	spans []span
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now()}
	t.phase.Store(noSpan)
	// The registry keeps t reachable, so its address never names a
	// second tracer.
	t.method = fmt.Sprintf("tocperf-TOC-%p", t)
	enc, dec := tracedCodec(t, formats.MustGetCodec("TOC"))
	formats.Register(t.method, enc, dec)
	return t
}

// begin opens a span and returns its id.
func (t *tracer) begin(k spanKind, parent, batch int32) int32 {
	start := int64(time.Since(t.origin))
	upd := t.updates.Load()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: parent, batch: batch, update: upd, start: start, end: -1})
	t.mu.Unlock()
	return id
}

// end closes span id, recording its work.
func (t *tracer) end(id int32, work int64) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	t.spans[id].end = now
	t.spans[id].work = work
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	for id, s := range spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"parent":%d,"update":%d,"batch":%d,"start_ns":%d,"end_ns":%d,"work":%d}`+"\n",
			id, s.kind, s.parent, s.update, s.batch, s.start, s.end, s.work)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
