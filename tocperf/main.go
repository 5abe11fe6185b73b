// Command tocperf is the repository's whole-program benchmark: it
// generates a workload's rows from a seed, sets up a compressed
// mini-batch store from them and trains on it through the program's
// public entry points, repeating set-up plus training for the requested
// time. It checks the outputs and prints every metric by name with its
// unit; the last line of standard output is one JSON object.
//
// Usage, from the repository root:
//
//	bash tocperf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of untraced runs.
// With --trace 1 it alternates untraced and traced runs and reports the
// per-layer metrics derived from spans that wrappers record around the
// calls into each layer, plus the tracing overhead. README.md lists the
// workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minCycles is the least number of set-up plus training cycles a run
// makes, whatever --seconds says, so every median has samples.
const minCycles = 3

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: spill-lr, inram-nn or dist-topk")
		seed    = flag.Int64("seed", 1, "seed the workload's rows and model are generated from")
		seconds = flag.Float64("seconds", 10, "how long to repeat set-up plus training")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		work    = flag.String("work", ".bench_build/tocperf-work", "directory for spill files, checkpoints and span dumps")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "tocperf: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tocperf: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "tocperf: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	e, err := prepare(w, *seed, dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tocperf: prepare %s: %v\n", w.name, err)
		return 1
	}
	prep := time.Since(t0)
	budget := time.Duration(*seconds * float64(time.Second))
	var r *report
	if *trace == 1 {
		spans := filepath.Join(*work, fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		r, err = e.runTraced(budget, spans)
	} else {
		r, err = e.runTimed(budget)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tocperf: %s: %v\n", w.name, err)
		return 1
	}
	r.notes = append(r.notes, fmt.Sprintf("untimed preparation %.2fs (data generation, store budget, DEN reference), whole run %.2fs",
		prep.Seconds(), time.Since(t0).Seconds()))
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "tocperf: %v\n", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// report is what a run prints.
type report struct {
	workload          string
	defs              []metricDef
	values            map[string]float64
	notes             []string // extra human-readable lines
	attempted, failed int64
	problems          []string
}

// add folds a cycle's operation counts and failures into the report.
func (r *report) add(c *cycle) {
	r.attempted += c.attempted
	r.failed += c.failed
	r.problems = append(r.problems, c.problems...)
}

// check records one run-level output check.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// warmUpTime is how long untimed cycles run before the timed ones, so
// every timed cycle finds caches filled, the Go heap grown to its
// working size and the machine under the same sustained load.
const warmUpTime = 1 * time.Second

func (e *env) warmUp(r *report) error {
	deadline := time.Now().Add(warmUpTime)
	for time.Now().Before(deadline) {
		c, err := e.runCycle(nil, false, false)
		if err != nil {
			return err
		}
		r.add(c)
	}
	return nil
}

// measureMemory runs minCycles untimed cold cycles and returns their
// peak resident sets in MB. Timed cycles are not cold: handing memory
// back to the OS and faulting it in again on every cycle would time the
// host's page allocation, which moves with the host's load.
func (e *env) measureMemory(r *report) ([]float64, error) {
	var rss []float64
	for len(rss) < minCycles {
		c, err := e.runCycle(nil, false, true)
		if err != nil {
			return nil, err
		}
		r.add(c)
		rss = append(rss, c.peakRSS)
	}
	return rss, nil
}

// runTimed measures peak memory, then repeats untraced cycles for
// budget and reports the end-to-end metrics.
func (e *env) runTimed(budget time.Duration) (*report, error) {
	r := &report{workload: e.w.name, defs: endToEnd}
	rss, err := e.measureMemory(r)
	if err != nil {
		return nil, err
	}
	if err := e.warmUp(r); err != nil {
		return nil, err
	}
	var cycles []*cycle
	deadline := time.Now().Add(budget)
	for len(cycles) < minCycles || time.Now().Before(deadline) {
		c, err := e.runCycle(nil, len(cycles) == 0, false)
		if err != nil {
			return nil, err
		}
		r.add(c)
		cycles = append(cycles, c)
	}
	for _, c := range cycles[1:] {
		r.check(c.crc == cycles[0].crc, "final params crc32 %08x differs from the first cycle's %08x", c.crc, cycles[0].crc)
	}

	// The update-interval percentiles are taken per cycle, then the
	// median over cycles, so a cycle the machine disturbed does not move
	// them.
	var setup, train, total, loss, p50, p90 []float64
	for _, c := range cycles {
		setup = append(setup, c.setup.Seconds())
		train = append(train, float64(e.d.X.Rows()*e.w.epochs)/c.train.Seconds())
		total = append(total, (c.setup + c.train).Seconds())
		loss = append(loss, c.epochLoss[len(c.epochLoss)-1])
		var intervals []float64
		for i := 1; i < len(c.stamps); i++ {
			intervals = append(intervals, float64(c.stamps[i].Sub(c.stamps[i-1]))/1e6)
		}
		sort.Float64s(intervals)
		p50 = append(p50, quantile(intervals, 0.5))
		p90 = append(p90, quantile(intervals, 0.9))
	}
	perCycle := len(cycles[0].stamps) - 1
	r.values = map[string]float64{
		"setup_s":             median(setup),
		"train_samples_per_s": median(train),
		"total_s":             median(total),
		"update_ms_p50":       median(p50),
		"update_ms_p90":       median(p90),
		"final_loss_vs_dense": median(loss) / e.refFinal,
		"compression_ratio":   float64(e.raw) / float64(cycles[0].compressed),
		"peak_rss_mb":         median(rss),
	}
	r.notes = append(r.notes,
		fmt.Sprintf("cycles %d (set-up plus training, medians reported), peak RSS from %d cold cycles before them", len(cycles), len(rss)),
		fmt.Sprintf("update intervals %d per cycle (p90 has %d beyond it), %d in all",
			perCycle, perCycle-int(math.Ceil(0.9*float64(perCycle))), perCycle*len(cycles)),
		fmt.Sprintf("final loss %.8g, DEN reference %.8g", median(loss), e.refFinal),
		fmt.Sprintf("final params crc32 %08x", cycles[0].crc))
	return r, nil
}

// runTraced alternates untraced and traced cycles for budget and
// reports the per-layer metrics (medians over the traced cycles) and
// the tracing overhead. The last traced cycle's spans are written to
// spansPath at the end.
func (e *env) runTraced(budget time.Duration, spansPath string) (*report, error) {
	r := &report{workload: e.w.name, defs: perLayer}
	if err := e.warmUp(r); err != nil {
		return nil, err
	}
	var plain, traced []float64
	var layers []map[string]float64
	var last *cycle
	deadline := time.Now().Add(budget)
	for len(traced) < minCycles || time.Now().Before(deadline) {
		u, err := e.runCycle(nil, len(traced) == 0, false)
		if err != nil {
			return nil, err
		}
		r.add(u)
		t, err := e.runCycle(newTracer(), len(traced) == 0, false)
		if err != nil {
			return nil, err
		}
		r.add(t)
		r.check(t.crc == u.crc, "traced final params crc32 %08x differs from untraced %08x", t.crc, u.crc)
		plain = append(plain, (u.setup + u.train).Seconds())
		traced = append(traced, (t.setup + t.train).Seconds())
		layers = append(layers, e.layerMetrics(t))
		last = t
	}
	r.values = map[string]float64{}
	for _, d := range perLayer {
		var vs []float64
		for _, l := range layers {
			vs = append(vs, l[d.name])
		}
		r.values[d.name] = median(vs)
	}
	refs, err := e.references(last)
	if err != nil {
		return nil, err
	}
	for k, v := range refs {
		r.values[k] = v
	}
	r.values["trace.overhead_ratio"] = median(traced) / median(plain)
	if err := writeSpans(spansPath, last.spans); err != nil {
		return nil, err
	}
	r.notes = append(r.notes,
		fmt.Sprintf("traced cycles %d, each paired with an untraced one", len(traced)),
		fmt.Sprintf("final params crc32 %08x", last.crc),
		"spans written to "+spansPath)
	return r, nil
}

// print writes the human-readable lines and, last, the JSON result.
func (r *report) print(f *os.File) error {
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	metrics := map[string]any{}
	for _, d := range r.defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
		fmt.Fprintf(w, "%-32s %16s %s\n", d.name, strconv.FormatFloat(v, 'g', 8, 64), d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fmt.Fprintf(w, "%-32s %16s %s\n", "error_rate", strconv.FormatFloat(ratio(float64(r.failed), float64(r.attempted)), 'g', 8, 64), "ratio")
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", r.attempted, r.failed)
	for _, p := range r.problems {
		fmt.Fprintf(w, "FAILED: %s\n", p)
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	w.Write(out)
	w.WriteByte('\n')
	return w.Flush()
}

// resetPeakRSS returns freed memory to the OS and resets the process's
// peak resident set (VmHWM) to its current resident set.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile returns the q-quantile of sorted s, interpolating linearly.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
