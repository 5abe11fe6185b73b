package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"toc/internal/checkpoint"
	"toc/internal/data"
	"toc/internal/dist"
	"toc/internal/engine"
	"toc/internal/formats"
	"toc/internal/matrix"
	"toc/internal/ml"
	"toc/internal/storage"
)

const (
	// workers is the engine pool: the core count of the 2-core machines
	// the bounds were set on.
	workers = 2
	// spillFrac is the memory budget of the spilling workload as a share
	// of the store's compressed bytes; the rest spills while the store
	// fills.
	spillFrac = 0.2
	// distCodec and distStaleness configure the parameter-server run.
	// One trainer keeps the server and its trainer to one core each, so
	// the run measures codec and RPC rather than the scheduler, and
	// keeps the trajectory a function of the inputs; the staleness
	// bound still lets it compute up to distStaleness positions on a
	// cached snapshot before it pulls again.
	distCodec     = "topk:0.01"
	distStaleness = 4
	// lossTol is the relative tolerance between the first epoch's
	// per-update losses on TOC and on the DEN reference encoding: the
	// two differ only in the summation order of their kernels.
	lossTol = 1e-7
)

// workload is one benchmark input and training configuration. Rows are
// generated from the run's seed.
type workload struct {
	name      string
	dataset   string
	rows      int
	batch     int
	model     string
	hidden    float64
	lr        float64
	epochs    int
	spill     bool // budget spillFrac of the compressed bytes, train through the prefetcher
	ckptEvery int  // > 0: checkpoint every ckptEvery updates
	dist      bool // train through dist.Server and one trainer over loopback TCP
}

var workloads = []workload{
	{name: "spill-lr", dataset: "census", rows: 40000, batch: 250, model: "lr", lr: 0.3, epochs: 30, spill: true},
	{name: "inram-nn", dataset: "mnist", rows: 8000, batch: 100, model: "nn", hidden: 0.12, lr: 0.3, epochs: 12, ckptEvery: 5},
	{name: "dist-topk", dataset: "mnist", rows: 8000, batch: 100, model: "nn", hidden: 0.12, lr: 0.3, epochs: 3, dist: true},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is one run's generated input and the figures derived from it
// before timing starts.
type env struct {
	w      workload
	seed   int64
	work   string
	d      *data.Dataset
	raw    int64   // dense bytes of the feature matrix
	nnz    []int64 // nonzeros per mini-batch
	budget int64   // store memory budget in compressed bytes
	// refLoss holds the per-update losses of the DEN reference run and
	// refFinal its last epoch's mean loss.
	refLoss  []float64
	refFinal float64
}

// prepare generates the workload's rows from seed and derives the store
// budget and the DEN reference run. None of it is timed.
func prepare(w workload, seed int64, work string) (*env, error) {
	d, err := generate(w, seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, work: work, d: d, raw: int64(8 * d.X.Rows() * d.X.Cols()), budget: math.MaxInt64}
	n := d.NumBatches(w.batch)
	e.nnz = make([]int64, n)
	for i := range e.nnz {
		x, _ := d.Batch(i, w.batch)
		e.nnz[i] = int64(x.NNZ())
	}
	if w.spill {
		enc := formats.MustGet("TOC")
		var total int64
		for i := 0; i < n; i++ {
			x, _ := d.Batch(i, w.batch)
			total += int64(enc(x).CompressedSize())
		}
		e.budget = int64(spillFrac * float64(total))
	}
	if err := e.denReference(); err != nil {
		return nil, fmt.Errorf("DEN reference run: %w", err)
	}
	return e, nil
}

// genParts is the number of independently seeded parts a workload's
// rows are generated in. A generator seed fixes structure shared by all
// its rows (the census combos, the mnist templates), so one seed alone
// moves compressibility and with it every timing by several percent;
// eight parts average that out while each mini-batch still comes from
// one part, with that part's redundancy.
const genParts = 8

// generate builds the workload's rows from seed: genParts parts, each
// generated and shuffled once with its own seed derived from seed, laid
// out one after the other. Every workload's part size is a whole number
// of mini-batches.
func generate(w workload, seed int64) (*data.Dataset, error) {
	if w.rows%(genParts*w.batch) != 0 {
		return nil, fmt.Errorf("%d rows do not split into %d parts of whole %d-row batches", w.rows, genParts, w.batch)
	}
	per := w.rows / genParts
	var out *data.Dataset
	for p := 0; p < genParts; p++ {
		ps := seed*genParts + int64(p)
		d, err := data.Generate(w.dataset, per, ps)
		if err != nil {
			return nil, err
		}
		d.ShuffleOnce(ps)
		if out == nil {
			out = &data.Dataset{Name: d.Name, X: matrix.NewDense(w.rows, d.X.Cols()), Y: make([]float64, w.rows), Classes: d.Classes}
		}
		copy(out.X.Data()[p*per*d.X.Cols():], d.X.Data())
		copy(out.Y[p*per:], d.Y)
	}
	return out, nil
}

// newModel builds the workload's model with a seeded initialization.
func (e *env) newModel() (ml.SnapshotModel, error) {
	m, err := ml.NewModel(e.w.model, e.d.X.Cols(), e.d.Classes, e.w.hidden, e.seed+7)
	if err != nil {
		return nil, err
	}
	sm, ok := m.(ml.SnapshotModel)
	if !ok {
		return nil, fmt.Errorf("model %q is not an ml.SnapshotModel", e.w.model)
	}
	return sm, nil
}

// updatesPerEpoch is the number of applied updates one epoch makes.
func (e *env) updatesPerEpoch() int {
	n := e.d.NumBatches(e.w.batch)
	if e.w.dist {
		return n
	}
	g := engine.DefaultGroupSize
	if g > n {
		g = n
	}
	return (n + g - 1) / g
}

// denReference trains the workload's schedule on the DEN (dense)
// encoding in memory with the local engine and records its losses. On
// the engine workloads it is the same engine configuration, so
// only the kernels' summation order differs; the dist workload's
// reference is serial MGD (one gradient per update), the trajectory
// staleness 0 and a dense codec would reproduce.
func (e *env) denReference() error {
	st, err := storage.NewStore(e.work, "DEN", math.MaxInt64)
	if err != nil {
		return err
	}
	defer st.Close()
	cfg := engine.Config{Workers: workers, Seed: e.seed, OnStep: func(_ int64, loss float64) {
		e.refLoss = append(e.refLoss, loss)
	}}
	if e.w.dist {
		cfg.GroupSize = 1
	}
	eng := engine.New(cfg)
	if err := eng.FillStore(st, e.d, e.w.batch); err != nil {
		return err
	}
	m, err := e.newModel()
	if err != nil {
		return err
	}
	res, err := eng.TrainFrom(m, st, e.w.epochs, e.w.lr, nil, nil)
	if err != nil {
		return err
	}
	e.refFinal = res.EpochLoss[len(res.EpochLoss)-1]
	return nil
}

// cycle is one set-up plus training run of a workload.
type cycle struct {
	setup, train time.Duration
	stamps       []time.Time // when each update was applied
	steps        []int64     // the update index (dist: schedule position) of each
	losses       []float64   // the summed mini-batch loss of each update
	epochLoss    []float64
	crc          uint32
	compressed   int64
	peakRSS      float64 // MB, cold cycles only

	attempted, failed int64
	problems          []string

	// Layer counters, and with tracing the spans.
	store     storage.Stats
	fillStore storage.Stats
	prefetch  storage.PrefetchStats
	server    dist.ServerStats
	ckptFiles int64
	ckptBytes int64
	ckptState *checkpoint.State
	spans     []span
	fill      int32 // engine.fill span
}

// fail records a failed operation.
func (c *cycle) fail(format string, args ...any) {
	c.failed++
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// runCycle sets up a store from the generated rows and trains on it.
// With tr non-nil the layers are traced. With check set, the stored
// batches are decoded and compared with the generated rows afterwards.
// With cold set, the cycle starts from a heap returned to the OS and
// records its peak resident set; otherwise it reuses the memory the
// previous cycle left to the Go heap. A returned error means the run
// itself failed; failed output checks are recorded in the cycle.
func (e *env) runCycle(tr *tracer, check, cold bool) (c *cycle, err error) {
	c = &cycle{fill: noSpan}
	dir, err := os.MkdirTemp(e.work, "cycle-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
			err = rerr
		}
	}()
	method := "TOC"
	if tr != nil {
		method = tr.method
	}
	onStep := func(step int64, loss float64) {
		c.stamps = append(c.stamps, time.Now())
		c.steps = append(c.steps, step)
		c.losses = append(c.losses, loss)
	}

	// Start every cycle from the same heap, without the previous
	// cycle's garbage. A cold cycle also hands the freed memory back to
	// the OS, so its peak resident set is its own.
	if cold {
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
	} else {
		runtime.GC()
	}

	// Set-up: generated rows -> a store ready to train, the model, and
	// for dist the server and connected trainers.
	start := time.Now()
	if tr != nil {
		c.fill = tr.begin(kFill, noSpan, noSpan)
		tr.phase.Store(c.fill)
	}
	st, err := storage.NewStore(dir, method, e.budget)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var ck *checkpoint.Writer
	if e.w.ckptEvery > 0 {
		if ck, err = checkpoint.NewWriter(filepath.Join(dir, "ckpt")); err != nil {
			return nil, err
		}
		defer ck.Close() // error paths; the success path checks Close below
		// Keep every file so the cycle can count what was written.
		ck.SetKeep(math.MaxInt32)
	}
	eng := engine.New(engine.Config{Workers: workers, Seed: e.seed, Checkpoint: ck, CheckpointEvery: e.w.ckptEvery, OnStep: onStep})
	if err := eng.FillStore(st, e.d, e.w.batch); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.end(c.fill, 0)
		tr.phase.Store(noSpan)
	}
	c.fillStore = st.Stats()
	model, err := e.newModel()
	if err != nil {
		return nil, err
	}
	var m ml.SnapshotModel = model
	if tr != nil {
		if m, err = wrapModel(tr, model); err != nil {
			return nil, err
		}
	}
	var res *ml.TrainResult
	if e.w.dist {
		res, err = e.trainDist(c, tr, st, m, onStep, start)
	} else {
		// Set-up collects its own garbage, so training does not pay for it.
		runtime.GC()
		c.setup = time.Since(start)
		res, err = e.trainLocal(c, tr, eng, st, m)
	}
	if err != nil {
		return nil, err
	}
	if ck != nil {
		if err := ck.Close(); err != nil {
			c.fail("checkpoint writer: %v", err)
		}
		if err := c.countCheckpoints(filepath.Join(dir, "ckpt"), tr != nil); err != nil {
			return nil, err
		}
	}
	if cold {
		if c.peakRSS, err = peakRSSMB(); err != nil {
			return nil, err
		}
	}
	c.store = st.Stats()
	c.compressed = st.TotalCompressedBytes()
	c.epochLoss = res.EpochLoss
	params := make([]float64, model.NumParams())
	model.Params(params)
	c.crc = paramsCRC(params)
	if tr != nil {
		c.spans = tr.snapshot()
	}
	e.checkCycle(c)
	if check {
		e.checkDecode(c, st)
	}
	return c, nil
}

// trainLocal runs the engine over the store, through the engine's
// prefetcher when the store spills.
//
// The prefetcher is built inside the timed section: it begins reading
// as soon as it exists, which is training work.
func (e *env) trainLocal(c *cycle, tr *tracer, eng *engine.Engine, st *storage.Store, m ml.SnapshotModel) (*ml.TrainResult, error) {
	start := time.Now()
	var train int32 = noSpan
	if tr != nil {
		train = tr.begin(kTrain, noSpan, noSpan)
		tr.phase.Store(train)
	}
	var src ml.BatchSource = st
	var pf *storage.Prefetcher
	if e.w.spill {
		pf = eng.NewPrefetcher(st, 0, 0)
		src = pf
	}
	if tr != nil {
		var err error
		if src, err = wrapSource(tr, src); err != nil {
			return nil, err
		}
	}
	res, err := eng.TrainFrom(m, src, e.w.epochs, e.w.lr, nil, nil)
	c.train = time.Since(start)
	if tr != nil {
		tr.end(train, 0)
		tr.phase.Store(noSpan)
	}
	if pf != nil {
		c.prefetch = pf.Stats()
		if cerr := pf.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	c.attempted++
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	return res, nil
}

// trainDist runs the parameter server and one trainer over loopback
// TCP. Set-up ends once the trainer is connected; its Join RPC is the
// first call of its run.
func (e *env) trainDist(c *cycle, tr *tracer, st *storage.Store, m ml.SnapshotModel,
	onStep func(int64, float64), start time.Time) (*ml.TrainResult, error) {
	codec, err := dist.ParseCodec(distCodec, e.seed)
	if err != nil {
		return nil, err
	}
	var src ml.BatchSource = st
	if tr != nil {
		codec = &tcodec{inner: codec, tr: tr}
		if src, err = wrapSource(tr, st); err != nil {
			return nil, err
		}
	}
	srv, err := dist.NewServer(dist.ServerConfig{
		Epochs: e.w.epochs, NumBatches: st.NumBatches(), LR: e.w.lr, Seed: e.seed,
		Staleness: distStaleness, Codec: codec, OnStep: onStep,
	}, m)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan struct{})
	go func() {
		_ = srv.Serve(ln) // returns once ln is closed below
		close(served)
	}()
	defer func() {
		ln.Close()
		<-served
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	var rwc io.ReadWriteCloser = conn
	if tr != nil {
		rwc = newTconn(tr, conn)
	}
	trainer := dist.NewTrainer(rwc, m.Clone(), src, dist.TrainerConfig{Codec: codec.Clone()})
	runtime.GC() // as in runCycle: set-up collects its own garbage
	c.setup = time.Since(start)

	t0 := time.Now()
	ran := make(chan error, 1)
	go func() { ran <- trainer.Run() }()
	res, werr := srv.Wait()
	c.train = time.Since(t0)
	if werr != nil {
		conn.Close() // unblock the trainer of a failed run
	}
	terr := <-ran
	c.server = srv.Stats()
	c.attempted += 2
	if terr != nil {
		c.fail("trainer: %v", terr)
	}
	if c.server.Disconnects > 0 {
		c.fail("%d trainer sessions dropped", c.server.Disconnects)
	}
	if werr != nil {
		return nil, fmt.Errorf("dist run: %w", werr)
	}
	return res, nil
}

// countCheckpoints counts the checkpoint files the writer produced and
// their bytes; with keepLast it also loads the newest one.
func (c *cycle) countCheckpoints(dir string, keepLast bool) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, en := range ents {
		info, err := en.Info()
		if err != nil {
			return err
		}
		c.ckptFiles++
		c.ckptBytes += info.Size()
	}
	c.attempted += c.ckptFiles
	if keepLast {
		st, err := checkpoint.Latest(dir)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			c.fail("checkpoint load: %v", err)
		}
		c.ckptState = st
	}
	return nil
}
