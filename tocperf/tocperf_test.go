package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"toc/internal/data"
	"toc/internal/dist"
	"toc/internal/engine"
	"toc/internal/formats"
	"toc/internal/ml"
	"toc/internal/storage"
)

// implements reports which of the optional interfaces the program
// type-asserts v satisfies.
func implements(v any) map[string]bool {
	_, po := v.(formats.ParallelOps)
	_, into := v.(formats.KernelPlanInto)
	_, sm := v.(ml.SnapshotModel)
	_, kp := v.(ml.KernelParallel)
	_, os := v.(engine.OrderedSource)
	_, ns := v.(engine.NextOrderedSource)
	_, rs := v.(engine.RequestSource)
	return map[string]bool{
		"formats.ParallelOps": po, "formats.KernelPlanInto": into,
		"ml.SnapshotModel": sm, "ml.KernelParallel": kp,
		"engine.OrderedSource": os, "engine.NextOrderedSource": ns, "engine.RequestSource": rs,
	}
}

func sameInterfaces(t *testing.T, what string, inner, wrapped any) {
	t.Helper()
	want, got := implements(inner), implements(wrapped)
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: inner %T implements %s = %v, wrapper %T = %v", what, inner, name, w, wrapped, got[name])
		}
	}
}

// TestWrappersForwardOptionalInterfaces pins that every wrapper
// implements exactly the optional interfaces its wrapped value does, so
// tracing never changes which branch the program takes.
func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	d, err := data.Generate("census", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, y := d.Batch(0, 32)
	for _, method := range []string{"TOC", "DEN", "CSR", "Snappy"} {
		inner := formats.MustGet(method)(x)
		w := wrapMatrix(tr, inner, 0, noSpan)
		sameInterfaces(t, method+" matrix", inner, w)
		if unwrapMatrix(wrapMatrix(tr, w, 1, noSpan)) != inner {
			t.Errorf("%s: rewrapping stacks wrappers", method)
		}
		po, ok := inner.(formats.ParallelOps)
		wpo, wok := w.(formats.ParallelOps)
		if ok && wok {
			sameInterfaces(t, method+" plan", po.NewKernelPlan(), wpo.NewKernelPlan())
		}
	}

	for _, name := range []string{"linreg", "lr", "svm", "nn"} {
		m, err := ml.NewModel(name, d.X.Cols(), 3, 0.1, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wrapModel(tr, m)
		if err != nil {
			t.Fatal(err)
		}
		sameInterfaces(t, name+" model", m, w)
		if _, ok := w.Clone().(*tmodel); !ok {
			t.Errorf("%s: Clone of a traced model is %T, want *tmodel", name, w.Clone())
		}
	}

	st, err := storage.NewStore(t.TempDir(), "TOC", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Add(x, y); err != nil {
		t.Fatal(err)
	}
	pf := storage.NewPrefetcher(st, 1, 1)
	defer pf.Close()
	for _, src := range []ml.BatchSource{st, pf} {
		w, err := wrapSource(tr, src)
		if err != nil {
			t.Fatal(err)
		}
		sameInterfaces(t, "source", src, w)
	}

	codec, err := dist.ParseCodec(distCodec, 1)
	if err != nil {
		t.Fatal(err)
	}
	tc := &tcodec{inner: codec, tr: tr}
	if tc.Name() != codec.Name() {
		t.Errorf("traced codec name %q, want %q", tc.Name(), codec.Name())
	}
	if _, ok := tc.Clone().(*tcodec); !ok {
		t.Errorf("Clone of a traced codec is %T, want *tcodec", tc.Clone())
	}
}

// small returns a workload shrunk to test size.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.rows = 1600
	w.batch = 100
	w.epochs = 2
	if w.ckptEvery > 0 {
		w.ckptEvery = 1
	}
	return w
}

// TestTracedRunMatchesUntraced runs every workload at test size with and
// without tracing: all output checks pass, every workload ends on
// bitwise identical parameters, and the traced run yields its
// layer metrics.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, w0 := range workloads {
		t.Run(w0.name, func(t *testing.T) {
			w := small(t, w0.name)
			e, err := prepare(w, 3, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			u, err := e.runCycle(nil, true, false)
			if err != nil {
				t.Fatal(err)
			}
			tc, err := e.runCycle(newTracer(), true, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []*cycle{u, tc} {
				if c.failed > 0 {
					t.Fatalf("output checks failed: %v", c.problems)
				}
			}
			if u.crc != tc.crc {
				t.Errorf("traced params crc32 %08x, untraced %08x", tc.crc, u.crc)
			}
			m := e.layerMetrics(tc)
			if got, want := m["engine.updates"], float64(len(tc.losses)); got != want {
				t.Errorf("engine.updates = %v, want %v", got, want)
			}
			if m["ml.grad_s"] <= 0 || m["core.kernel_ns_per_nnz"] <= 0 || m["engine.fill_s"] <= 0 {
				t.Errorf("missing layer times: %v", m)
			}
			if w.spill && (m["storage.reads"] == 0 || m["core.deserialize_ns_per_byte"] == 0) {
				t.Errorf("spilling workload recorded no spilled reads: %v", m)
			}
			if w.ckptEvery > 0 && m["checkpoint.saves"] == 0 {
				t.Errorf("no checkpoints counted: %v", m)
			}
			if w.dist && (m["dist.pushes"] == 0 || m["dist.rpc_wait_s"] == 0 || m["dist.encode_grad_s"] == 0) {
				t.Errorf("dist layer not traced: %v", m)
			}
			refs, err := e.references(tc)
			if err != nil {
				t.Fatal(err)
			}
			for k, v := range refs {
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("reference %s = %v", k, v)
				}
			}
		})
	}
}

// TestCheckCatchesWrongLoss pins that a loss off the DEN reference and a
// non-finite loss fail the output checks.
func TestCheckCatchesWrongLoss(t *testing.T) {
	e, err := prepare(small(t, "spill-lr"), 5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c, err := e.runCycle(nil, false, true)
	if err != nil {
		t.Fatal(err)
	}
	c.attempted, c.failed, c.problems = 0, 0, nil
	c.losses[0] *= 1 + 1e-3
	c.losses[1] = math.NaN()
	e.checkCycle(c)
	if c.failed != 2 {
		t.Errorf("failed = %d, want 2 (loss off the reference, non-finite loss): %v", c.failed, c.problems)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{kind: kGrad, parent: noSpan, start: 0, end: 100},
		{kind: kPlan, parent: 0, start: 10, end: 30},
		{kind: kMulVec, parent: 0, start: 20, end: 50},
		{kind: kVecMul, parent: 0, start: 60, end: 70},
		{kind: kMulVec, parent: 0, start: 95, end: -1}, // never closed
		{kind: kGrad, parent: noSpan, start: 200, end: 210},
	}
	if got, want := selfTime(spans, kGrad), int64(100-50+10); got != want {
		t.Errorf("selfTime = %d, want %d", got, want)
	}
}

// TestBenchmarkJSONMatches pins BENCHMARK.json at the repository root
// to the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if w := c.want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", c.what, i, m, w)
			}
		}
	}
}
