package main

import (
	"sort"
)

// metricDef is one reported metric: its name, unit and direction.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"train_samples_per_s", "1/s", "higher"},
	{"total_s", "s", "lower"},
	{"update_ms_p50", "ms", "lower"},
	{"update_ms_p90", "ms", "lower"},
	{"final_loss_vs_dense", "ratio", "lower"},
	{"compression_ratio", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer lists the metrics of a traced run, in print order.
var perLayer = []metricDef{
	{"engine.fill_s", "s", "lower"},
	{"core.compress_s", "s", "lower"},
	{"core.compress_mb_per_s", "MB/s", "higher"},
	{"core.compress_vs_snappy", "ratio", "lower"},
	{"core.compress_allocs_per_batch", "count", "lower"},
	{"core.serialize_s", "s", "lower"},
	{"storage.add_s", "s", "lower"},
	{"storage.spill_bytes_written", "bytes", "lower"},
	{"storage.spilled_batches", "count", "lower"},
	{"storage.reads", "count", "lower"},
	{"storage.read_bytes", "bytes", "lower"},
	{"storage.read_s", "s", "lower"},
	{"storage.retries", "count", "lower"},
	{"storage.failed_reads", "count", "lower"},
	{"storage.prefetch_hit_ratio", "ratio", "higher"},
	{"storage.prefetch_stall_s", "s", "lower"},
	{"storage.wasted_reads", "count", "lower"},
	{"engine.batch_wait_s", "s", "lower"},
	{"core.deserialize_ns_per_byte", "ns/B", "lower"},
	{"core.deserialize_vs_memmove", "ratio", "lower"},
	{"core.plan_builds", "count", "lower"},
	{"core.plan_s", "s", "lower"},
	{"core.mulvec_s", "s", "lower"},
	{"core.vecmul_s", "s", "lower"},
	{"core.mulmat_s", "s", "lower"},
	{"core.matmul_s", "s", "lower"},
	{"core.kernel_ns_per_nnz", "ns", "lower"},
	{"ml.grad_s", "s", "lower"},
	{"ml.grad_self_s", "s", "lower"},
	{"ml.apply_s", "s", "lower"},
	{"ml.apply_vs_axpy", "ratio", "lower"},
	{"engine.updates", "count", "higher"},
	{"checkpoint.saves", "count", "higher"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"checkpoint.encode_ns_per_byte", "ns/B", "lower"},
	{"dist.encode_grad_s", "s", "lower"},
	{"dist.decode_grad_s", "s", "lower"},
	{"dist.encode_snap_s", "s", "lower"},
	{"dist.decode_snap_s", "s", "lower"},
	{"dist.codec_vs_copy", "ratio", "lower"},
	{"dist.wire_ratio", "ratio", "lower"},
	{"dist.up_bytes", "bytes", "lower"},
	{"dist.down_bytes", "bytes", "lower"},
	{"dist.pushes", "count", "lower"},
	{"dist.push_efficiency", "ratio", "higher"},
	{"dist.rpc_wait_s", "s", "lower"},
	{"dist.staleness_mean", "updates", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// layerMetrics derives one traced cycle's per-layer metrics from its
// spans and the layers' own counters. Metrics of a layer the workload
// does not use are 0.
func (e *env) layerMetrics(c *cycle) map[string]float64 {
	var busy [numKinds]int64 // summed span durations, ns
	var count [numKinds]int64
	var work [numKinds]int64
	var lastCompress int64
	for _, s := range c.spans {
		if s.end < 0 {
			continue
		}
		busy[s.kind] += s.end - s.start
		count[s.kind]++
		work[s.kind] += s.work
		if s.kind == kCompress && s.end > lastCompress {
			lastCompress = s.end
		}
	}
	sec := func(k spanKind) float64 { return float64(busy[k]) / 1e9 }
	m := map[string]float64{}

	if c.fill != noSpan {
		f := c.spans[c.fill]
		m["engine.fill_s"] = float64(f.end-f.start) / 1e9
		// FillStore compresses on its workers, then adds the batches in
		// order; the add pass runs from the last compress to the end.
		if lastCompress > 0 {
			m["storage.add_s"] = float64(f.end-lastCompress) / 1e9
		}
	}
	m["core.compress_s"] = sec(kCompress)
	m["core.compress_mb_per_s"] = ratio(float64(work[kCompress])/1e6, sec(kCompress))
	m["core.serialize_s"] = sec(kSerialize)
	m["storage.spill_bytes_written"] = float64(c.fillStore.SpilledBytes)
	m["storage.spilled_batches"] = float64(c.fillStore.SpilledBatches)

	m["storage.reads"] = float64(c.store.Reads)
	m["storage.read_bytes"] = float64(c.store.BytesRead)
	m["storage.read_s"] = c.store.ReadTime.Seconds()
	m["storage.retries"] = float64(c.store.Retries)
	m["storage.failed_reads"] = float64(c.store.FailedReads)
	pf := c.prefetch
	m["storage.prefetch_hit_ratio"] = ratio(float64(pf.Hits), float64(pf.Hits+pf.Misses))
	m["storage.prefetch_stall_s"] = pf.Stall.Seconds()
	m["storage.wasted_reads"] = float64(max(0, pf.Prefetched-pf.Hits))
	m["engine.batch_wait_s"] = sec(kBatch)
	m["core.deserialize_ns_per_byte"] = ratio(float64(busy[kDeserialize]), float64(work[kDeserialize]))

	m["core.plan_builds"] = float64(count[kPlan])
	m["core.plan_s"] = sec(kPlan)
	m["core.mulvec_s"] = sec(kMulVec)
	m["core.vecmul_s"] = sec(kVecMul)
	m["core.mulmat_s"] = sec(kMulMat)
	m["core.matmul_s"] = sec(kMatMul)
	var kernelNs, nnzWork int64
	for _, s := range c.spans {
		if s.end < 0 || s.batch < 0 || !isKernel(s.kind) {
			continue
		}
		kernelNs += s.end - s.start
		nnzWork += e.nnz[s.batch] * s.work
	}
	m["core.kernel_ns_per_nnz"] = ratio(float64(kernelNs), float64(nnzWork))

	m["ml.grad_s"] = sec(kGrad)
	m["ml.grad_self_s"] = float64(selfTime(c.spans, kGrad)) / 1e9
	m["ml.apply_s"] = sec(kApply)
	m["engine.updates"] = float64(count[kApply])

	m["checkpoint.saves"] = float64(c.ckptFiles)
	m["checkpoint.bytes"] = float64(c.ckptBytes)

	m["dist.encode_grad_s"] = sec(kEncodeGrad)
	m["dist.decode_grad_s"] = sec(kDecodeGrad)
	m["dist.encode_snap_s"] = sec(kEncodeSnap)
	m["dist.decode_snap_s"] = sec(kDecodeSnap)
	st := c.server
	if e.w.dist {
		m["dist.wire_ratio"] = st.WireRatio()
	}
	m["dist.up_bytes"] = float64(st.UpBytes)
	m["dist.down_bytes"] = float64(st.DownBytes)
	m["dist.pushes"] = float64(st.Pushes)
	m["dist.push_efficiency"] = ratio(float64(st.Updates), float64(st.Pushes))
	m["dist.rpc_wait_s"] = sec(kRPC)
	m["dist.staleness_mean"] = st.MeanStaleness()
	return m
}

// isKernel reports whether k is a compressed-matrix kernel, the spans
// core.kernel_ns_per_nnz covers.
func isKernel(k spanKind) bool {
	switch k {
	case kMulVec, kVecMul, kMulMat, kMatMul:
		return true
	}
	return false
}

// selfTime sums, over the spans of kind k, each span's duration minus
// the part of it its child spans cover.
func selfTime(spans []span, k spanKind) int64 {
	children := map[int32][][2]int64{}
	for _, s := range spans {
		if s.end >= 0 && s.parent >= 0 && spans[s.parent].kind == k {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	var total int64
	for id, s := range spans {
		if s.kind != k || s.end < 0 {
			continue
		}
		total += s.end - s.start - covered(children[int32(id)], s.start, s.end)
	}
	return total
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		s, e := max(v[0], cur), min(v[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
