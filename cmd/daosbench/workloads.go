package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"daosim/internal/bench"
	"daosim/internal/cache"
	"daosim/internal/cluster"
	"daosim/internal/core"
	"daosim/internal/ior"
	"daosim/internal/jobstore"
	"daosim/internal/placement"
	"daosim/internal/sim"
	"daosim/internal/studysvc"
)

// workload is one set of inputs the benchmark runs. Why each exists is in
// README.md.
type workload struct {
	name string
	// batch names what one latency sample times: the workload's unit of
	// submitted work, from its start to its last point.
	batch   string
	prepare func(o opts) (*prepared, error)
}

var workloadList = []workload{
	{"paper-sweep", "Figure 1 + 2 sweep", preparePaperSweep},
	{"small-verify", "6-case sweep", prepareSmallVerify},
	{"warm-durable", "batch submit to trailer", func(o opts) (*prepared, error) { return prepareWarm(o, true) }},
	{"warm-ephemeral", "batch submit to trailer", func(o opts) (*prepared, error) { return prepareWarm(o, false) }},
}

func workloadNames() []string {
	names := make([]string, len(workloadList))
	for i, w := range workloadList {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// prepared is a workload after set-up, ready to measure.
type prepared struct {
	// setup holds the duration of each set-up repetition.
	setup []time.Duration
	// loop runs the closed loop until the deadline (always at least one
	// unit of work; see another for the sweeps), checks every output, and
	// adds what it did to t.
	// Its error means the loop could not continue at all.
	loop  func(until time.Time, tr *tracer, t *tally) error
	close func()
}

// tally counts what a loop did.
type tally struct {
	attempted, failed int
	// latency holds one sample in ms per batch (a sweep, for the sweep
	// workloads). Per-point times would not do: a sweep's 1-node and 4-node
	// points form two clusters, and their median falls in the gap between.
	latency []float64
	// first holds, per warm batch, the ms from submit to its first point.
	first []float64
	// byKind groups paper-sweep point host times by interface.
	byKind map[string][]float64
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.latency = append(t.latency, o.latency...)
	t.first = append(t.first, o.first...)
}

func (t tally) result(m map[string]metric) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// repeatSetup times n repetitions of a set-up step.
func repeatSetup(n int, step func() error) ([]time.Duration, error) {
	ds := make([]time.Duration, n)
	for i := range ds {
		t0 := time.Now()
		if err := step(); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0)
	}
	return ds, nil
}

// another reports whether a sweep loop starts one more sweep: always the
// first, then while half a sweep as long as the last one fits before until.
// A round then ends within half a sweep of its deadline, not up to a whole
// sweep (seconds, for the sweep workloads) after it.
func another(n int, last time.Duration, until time.Time) bool {
	return n == 0 || time.Now().Add(last/2).Before(until)
}

func (o opts) reps(n int) int {
	if o.tiny {
		return 1
	}
	return n
}

// onePoint is a 1-point batch: Figure 1's 1-node DFS S2 point.
func onePoint(seed uint64) []core.Config {
	return []core.Config{{Workload: "easy", Nodes: []int{1}, Variants: core.EasyVariants()[1:2], Seed: seed}}
}

// coldPoints is how many times the sweeps' set-up runs coldPoint. One takes
// ~50 ms and varies by a third from one to the next; the reported set-up
// time is the median.
const coldPoints = 11

// coldPoint is the sweeps' set-up step: simulate onePoint on a fresh kernel
// and testbed, the cold start a sweep pays before its workers' kernel
// arenas are warm.
func coldPoint(seed uint64) error {
	_, jobs := core.Decompose(onePoint(seed))
	if pt := jobs[0].Execute(); pt.Err != "" {
		return errors.New(pt.Err)
	}
	return nil
}

// matchGolden compares got with the committed golden CSV file.
func matchGolden(dir, file, got string) error {
	want, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if got != string(want) {
		return fmt.Errorf("golden: output differs from %s", file)
	}
	return nil
}

// apiKind names a variant's interface for the per-interface point spans.
func apiKind(a ior.API) string {
	switch a {
	case ior.APIMPIIO:
		return "point.mpiio"
	case ior.APIHDF5:
		return "point.hdf5"
	}
	return "point.dfs"
}

// preparePaperSweep: the paper's Figure 1 + Figure 2 grids through the
// figures route (bench.Figure1/Figure2 on the in-process Runner, no cache,
// unverified reads) at Quick scale, repeated. Seed 0 must reproduce the
// golden CSVs (and the fault grid's); every sweep must equal the first. One
// simulation worker: two concurrent 4-node points double the peak RSS (to
// ~2 GB) and make it vary with how the points overlap.
func preparePaperSweep(o opts) (*prepared, error) {
	setup, err := repeatSetup(o.reps(coldPoints), func() error { return coldPoint(o.seed) })
	if err != nil {
		return nil, err
	}
	bo := bench.Options{Scale: bench.Quick, Parallelism: 1, Seed: o.seed}
	if o.seed == 0 {
		fss, err := bench.FaultGrid(bo)
		if err != nil {
			return nil, err
		}
		if err := matchGolden(o.golden, "fault_quick.csv", bench.FaultCSV(fss)); err != nil {
			return nil, err
		}
	}
	figures := []struct {
		name, golden string
		run          func(bench.Options) (*core.Study, error)
	}{
		{"bench.Figure1", "figure1_quick.csv", bench.Figure1},
		{"bench.Figure2", "figure2_quick.csv", bench.Figure2},
	}
	var first []string // the first sweep's CSV per figure
	loop := func(until time.Time, tr *tracer, t *tally) error {
		if t.byKind == nil {
			t.byKind = map[string][]float64{}
		}
		var last time.Duration
		for n := 0; another(n, last, until); n++ {
			id := fmt.Sprintf("sweep-%d", n)
			root := tr.begin("sweep", id, -1, 0)
			csvs := make([]string, len(figures))
			points, bad := 0, 0
			t0 := time.Now()
			for i, fig := range figures {
				h := tr.begin(fig.name, id, root, 0)
				st, err := fig.run(bo)
				tr.end(h)
				var pe *core.PointErrors
				if err != nil && !errors.As(err, &pe) {
					return err
				}
				for _, s := range st.Series {
					for _, pt := range s.Points {
						points++
						if pt.Err != "" {
							bad++
						}
						k := apiKind(s.Variant.API)
						t.byKind[k] = append(t.byKind[k], ms(pt.Elapsed))
					}
				}
				csvs[i] = st.CSV()
			}
			last = time.Since(t0)
			t.latency = append(t.latency, ms(last))
			tr.end(root)
			if first == nil {
				first = csvs
				if o.seed == 0 {
					for i, fig := range figures {
						if err := matchGolden(o.golden, fig.golden, csvs[i]); err != nil {
							fmt.Fprintln(os.Stderr, "daosbench: paper-sweep:", err)
							bad = points
						}
					}
				}
			}
			for i := range csvs {
				if csvs[i] != first[i] {
					fmt.Fprintf(os.Stderr, "daosbench: paper-sweep: %s sweep %d differs from the first sweep\n", figures[i].name, n)
					bad = points
				}
			}
			t.attempted += points
			t.failed += bad
		}
		return nil
	}
	return &prepared{setup: setup, loop: loop, close: func() {}}, nil
}

// verifyCase is one small-verify point: verified shared-file IOR with small
// transfers.
type verifyCase struct {
	label      string
	api        ior.API
	class      placement.ClassID
	nodes      int
	collective bool
}

// verifyCases keeps the collective case at 2 nodes: verified collective
// reads grow superlinearly with node count.
var verifyCases = []verifyCase{
	{"dfs-sx", ior.APIDFS, placement.SX, 4, false},
	{"posix-sx", ior.APIPosix, placement.SX, 4, false},
	{"mpiio-sx", ior.APIMPIIO, placement.SX, 4, false},
	{"hdf5-sx", ior.APIHDF5, placement.SX, 4, false},
	{"hdf5-s2", ior.APIHDF5, placement.S2, 4, false},
	{"mpiio-coll-sx", ior.APIMPIIO, placement.SX, 2, true},
}

// caseOutcome is what one small-verify point produced.
type caseOutcome struct {
	write, read float64
	verifyErrs  int64
	err         error
}

// runCase simulates one small-verify point on a fresh testbed, recording a
// span around each call into the cluster and IOR layers.
func runCase(c verifyCase, i int, o opts, tr *tracer, id string, root int) caseOutcome {
	block := int64(4 << 20)
	if o.tiny {
		block = 256 << 10
	}
	cfg := cluster.NEXTGenIO()
	cfg.Seed = core.PointSeed(o.seed, i, c.nodes)
	h := tr.begin("cluster.New", id, root, i)
	tb := cluster.New(cfg)
	tr.end(h)
	var res *ior.Result
	var err error
	tb.Run(func(p *sim.Proc) {
		h := tr.begin("ior.NewEnv", id, root, i)
		env, e := ior.NewEnv(p, tb, c.nodes, 8)
		tr.end(h)
		if e != nil {
			err = e
			return
		}
		h = tr.begin("ior.Run", id, root, i)
		res, err = ior.Run(p, env, ior.Config{
			API:           c.api,
			BlockSize:     block,
			TransferSize:  64 << 10,
			DoWrite:       true,
			DoRead:        true,
			Verify:        true,
			ReorderTasks:  true,
			RandomOffsets: !c.collective,
			Class:         c.class,
			Collective:    c.collective,
		})
		tr.end(h)
	})
	h = tr.begin("Testbed.Shutdown", id, root, i)
	tb.Shutdown()
	tr.end(h)
	if err != nil {
		return caseOutcome{err: err}
	}
	return caseOutcome{write: res.Write.MaxGiBs, read: res.Read.MaxGiBs, verifyErrs: res.VerifyErrors}
}

// prepareSmallVerify: direct ior.Run with verified reads over six
// small-transfer shared-file cases, swept on a 2-worker core.Runner.Map.
// Every point must verify clean and repeat the first sweep's bandwidths.
func prepareSmallVerify(o opts) (*prepared, error) {
	setup, err := repeatSetup(o.reps(coldPoints), func() error { return coldPoint(o.seed) })
	if err != nil {
		return nil, err
	}
	runner := &core.Runner{Parallelism: workers}
	var first []caseOutcome
	loop := func(until time.Time, tr *tracer, t *tally) error {
		var last time.Duration
		for n := 0; another(n, last, until); n++ {
			outs := make([]caseOutcome, len(verifyCases))
			t0 := time.Now()
			runner.Map(len(verifyCases), func(i int) error {
				c := verifyCases[i]
				id := fmt.Sprintf("sweep-%d/%s", n, c.label)
				root := tr.begin("case."+c.label, id, -1, i)
				outs[i] = runCase(c, i, o, tr, id, root)
				tr.end(root)
				return nil
			})
			last = time.Since(t0)
			t.latency = append(t.latency, ms(last))
			if first == nil {
				first = outs
			}
			for i, out := range outs {
				t.attempted++
				switch {
				case out.err != nil:
					fmt.Fprintf(os.Stderr, "daosbench: small-verify %s: %v\n", verifyCases[i].label, out.err)
				case out.verifyErrs != 0:
					fmt.Fprintf(os.Stderr, "daosbench: small-verify %s: %d verify errors\n", verifyCases[i].label, out.verifyErrs)
				case out.write != first[i].write || out.read != first[i].read:
					fmt.Fprintf(os.Stderr, "daosbench: small-verify %s: bandwidth differs from the first sweep\n", verifyCases[i].label)
				default:
					continue
				}
				t.failed++
			}
		}
		return nil
	}
	return &prepared{setup: setup, loop: loop, close: func() {}}, nil
}

// quickConfigs is the Quick-scale Figure 1 + Figure 2 batch: the configs
// bench.Figure1 and bench.Figure2 run at Quick scale.
func quickConfigs(seed uint64) []core.Config {
	return []core.Config{
		{Workload: "easy", Nodes: []int{1, 4}, Variants: core.EasyVariants(), Seed: seed},
		{Workload: "hard", Nodes: []int{1, 4}, Variants: core.HardVariants(), Seed: seed},
	}
}

// samePoints reports whether two batches carry identical points, ignoring
// host wall-clock. Both come from core.Decompose of the same configs, so
// equal points render byte-identical CSV.
func samePoints(a, b []*core.Study) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Series) != len(b[i].Series) {
			return false
		}
		for s := range a[i].Series {
			pa, pb := a[i].Series[s].Points, b[i].Series[s].Points
			if len(pa) != len(pb) {
				return false
			}
			for k := range pa {
				x, y := pa[k], pb[k]
				x.Elapsed, y.Elapsed = 0, 0
				if x != y {
					return false
				}
			}
		}
	}
	return true
}

func csvOf(studies []*core.Study) string {
	s := ""
	for _, st := range studies {
		s += st.CSV()
	}
	return s
}

// warmServer is an in-process daosd: a studysvc.Server behind a loopback
// HTTP listener, with memory and disk cache tiers and, when durable, a job
// store — the setup of `daosd -parallel 1 -cache-dir d [-store-dir s]`.
type warmServer struct {
	dir    string
	addr   string
	srv    *studysvc.Server
	http   *http.Server
	store  *jobstore.Store
	served chan error
}

func startWarm(durable bool) (*warmServer, error) {
	dir, err := os.MkdirTemp("", "daosbench-")
	if err != nil {
		return nil, err
	}
	w := &warmServer{dir: dir, served: make(chan error, 1)}
	c, err := cache.New(cache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if durable {
		if w.store, err = jobstore.Open(filepath.Join(dir, "store")); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	// One simulation slot: the measured batches are all cache hits, and a
	// second slot would only double the cold pass's peak memory.
	w.srv = studysvc.New(studysvc.Config{Workers: 1, Cache: c, Store: w.store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		if w.store != nil {
			w.store.Close()
		}
		os.RemoveAll(dir)
		return nil, err
	}
	w.addr = ln.Addr().String()
	w.http = &http.Server{Handler: w.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { w.served <- w.http.Serve(ln) }()
	return w, nil
}

// close drains the server as daosd does on SIGTERM and removes its
// directories.
func (w *warmServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := w.http.Shutdown(ctx); err != nil {
		w.http.Close()
	}
	cancel()
	<-w.served
	w.srv.Close()
	if w.store != nil {
		w.store.Close()
	}
	os.RemoveAll(w.dir)
}

// prepareWarm: an in-process daosd, durable or not, warmed with one cold
// pass of the Quick Figure 1 + Figure 2 batch, then one closed-loop
// studysvc.Client per worker re-submitting that batch (two clients were
// steadier than one: neither CPU idles between batches). Every batch must
// come back 100% cache hits and point-identical to an in-process
// core.Runner run (and, at seed 0, to the golden CSVs).
func prepareWarm(o opts, durable bool) (*prepared, error) {
	cfgs := quickConfigs(o.seed)
	ref, err := (&core.Runner{Parallelism: 1}).RunAll(cfgs)
	if err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	if o.seed == 0 {
		if err := matchGolden(o.golden, "figure1_quick.csv", ref[0].CSV()); err != nil {
			return nil, err
		}
		if err := matchGolden(o.golden, "figure2_quick.csv", ref[1].CSV()); err != nil {
			return nil, err
		}
	}
	refCSV := csvOf(ref)
	var w *warmServer
	// Set-up: open cache, store and server, then the cold pass that fills
	// the cache. Each repetition starts from empty directories; the last
	// one's server is the one measured.
	setup, err := repeatSetup(o.reps(3), func() error {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = startWarm(durable); err != nil {
			return err
		}
		cl := studysvc.NewClient(w.addr)
		defer cl.HTTP.CloseIdleConnections()
		cold, err := cl.Submit(context.Background(), cfgs)
		if err != nil {
			return fmt.Errorf("cold pass: %w", err)
		}
		if csvOf(cold) != refCSV {
			return errors.New("cold pass differs from the in-process run")
		}
		return nil
	})
	if err != nil {
		if w != nil {
			w.close()
		}
		return nil, err
	}
	loop := func(until time.Time, tr *tracer, t *tally) error {
		tallies := make([]tally, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for c := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = warmClient(w.addr, cfgs, ref, refCSV, until, tr, c, &tallies[c])
			}()
		}
		wg.Wait()
		for _, ct := range tallies {
			t.merge(ct)
		}
		return errors.Join(errs...)
	}
	return &prepared{setup: setup, loop: loop, close: w.close}, nil
}

// warmClient is one closed-loop client: it re-submits cfgs until the
// deadline, timing each batch from submit to trailer and to its first point.
func warmClient(addr string, cfgs []core.Config, ref []*core.Study, refCSV string, until time.Time, tr *tracer, c int, t *tally) error {
	cl := studysvc.NewClient(addr)
	defer cl.HTTP.CloseIdleConnections()
	var first time.Time
	cl.OnPoint = func(studysvc.StreamPoint) {
		if first.IsZero() {
			first = time.Now()
		}
	}
	points := 0
	for _, st := range ref {
		points += st.NumPoints()
	}
	for n := 0; n == 0 || time.Now().Before(until); n++ {
		var id string
		if tr != nil {
			id = fmt.Sprintf("client-%d/batch-%d", c, n)
		}
		hits := cl.Ledger().CacheHits
		first = time.Time{}
		t0 := time.Now()
		root := tr.begin("studysvc.Client.Submit", id, -1, c)
		studies, err := cl.Submit(context.Background(), cfgs)
		tr.end(root)
		done := time.Now()
		if err != nil {
			return fmt.Errorf("client %d batch %d: %w", c, n, err)
		}
		tr.record("first point", id, root, c, t0, first)
		t.attempted += points
		t.latency = append(t.latency, ms(done.Sub(t0)))
		t.first = append(t.first, ms(first.Sub(t0)))
		ok := cl.Ledger().CacheHits-hits == points && samePoints(studies, ref)
		if ok && n == 0 {
			ok = csvOf(studies) == refCSV
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "daosbench: client %d batch %d: not a 100%% cache-hit replay of the in-process run\n", c, n)
			t.failed += points
		}
	}
	return nil
}
