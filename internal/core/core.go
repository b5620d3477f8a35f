// Package core implements the paper's contribution as a library: the DAOS
// interface study. A Study sweeps IOR workloads across client-node counts,
// access interfaces (DFS, POSIX/DFuse, MPI-I/O, HDF5), and object classes
// (S1, S2, ... SX), on a simulated NEXTGenIO-class testbed, and reports the
// read/write bandwidth series behind the paper's Figures 1 and 2 together
// with machine-checkable versions of its qualitative claims.
//
// # Architecture: the Runner and seed derivation
//
// A sweep is a grid of independent (variant, node-count) points, each
// simulated on a fresh testbed. The Runner fans those points out across a
// bounded worker pool (Config.Parallelism workers, default GOMAXPROCS), and
// Runner.RunAll additionally pools the points of several studies so that
// batches of small studies still fill every core. Results land in
// pre-allocated Study slots, point failures are recorded per point
// (Point.Err) rather than aborting the sweep, and per-point host wall-clock
// goes to Point.Elapsed.
//
// Determinism survives parallelism because nothing is shared between points:
// each point's testbed seed is derived from (Config.Seed, variant index,
// node count) with splitmix64 — never from execution order — so a parallel
// sweep produces byte-identical Table/CSV output to a sequential run of the
// same seed.
//
// Because a point is a pure function of its inputs, the Runner can memoize
// completed points through an optional content-addressed cache
// (Runner.Cache, backed by internal/cache): the key hashes every
// output-affecting field — geometry, variant physics, node count, derived
// seed, testbed cost models, and sim.KernelVersion — so a warm sweep
// replays byte-identical results without simulating.
package core

import (
	"fmt"
	"strings"
	"time"

	"daosim/internal/cluster"
	"daosim/internal/ior"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// Variant is one line on a figure: an interface plus an object class.
type Variant struct {
	Label string
	API   ior.API
	Class placement.ClassID
	// Collective selects collective MPI-I/O (shared-file only).
	Collective bool
}

// Config describes a study sweep.
type Config struct {
	// Workload is "easy" (file-per-process) or "hard" (shared file).
	Workload string
	// Nodes is the client-node sweep (e.g. 1,2,4,8,16).
	Nodes []int
	// PPN is ranks per client node.
	PPN int
	// BlockSize and TransferSize set the per-rank IOR geometry.
	BlockSize    int64
	TransferSize int64
	// Segments and Iterations follow IOR semantics.
	Segments   int
	Iterations int
	// Variants are the series to measure.
	Variants []Variant
	// Testbed configures the simulated cluster (defaults to NEXTGenIO).
	Testbed cluster.Config
	// Seed is the study seed from which every point's testbed seed is
	// derived (defaults to the testbed seed).
	Seed uint64
	// Parallelism bounds how many points run concurrently (defaults to
	// runtime.GOMAXPROCS(0)). Results are identical at any setting.
	Parallelism int
	// FaultPlan schedules deterministic failure injection: each event
	// fires at its virtual instant relative to the workload start (engine
	// kill, pool-map exclusion, rebuild traffic; restart re-integrates).
	// Empty means no faults — byte-identical to a config without the field.
	FaultPlan []cluster.FaultEvent
	// Rebuild models the rebuild traffic a kill triggers (rate-paced
	// streams on the survivors). Only consulted when FaultPlan is non-empty.
	Rebuild cluster.RebuildConfig
}

// Point is one measured sweep point.
type Point struct {
	Nodes     int
	Ranks     int
	WriteGiBs float64
	ReadGiBs  float64
	// DegradedGiBs, RecoverySec, and MapTransitions are the degraded-mode
	// outputs of a point run with a FaultPlan: client bandwidth inside the
	// degraded window, the window's virtual length, and the pool-map
	// version steps the plan caused. All zero without a plan.
	DegradedGiBs   float64
	RecoverySec    float64
	MapTransitions int
	// Elapsed is the host wall-clock time spent simulating this point. It
	// is execution-dependent and deliberately excluded from Table and CSV.
	Elapsed time.Duration
	// Err records the point's failure, if any; the rest of the sweep still
	// runs.
	Err string
}

// Series is one variant's sweep.
type Series struct {
	Variant Variant
	Points  []Point
}

// Study is a completed sweep.
type Study struct {
	Config Config
	Series []Series
	// Elapsed is the host wall-clock time of the runner batch that
	// produced this study.
	Elapsed time.Duration
}

// NumPoints returns the number of sweep points in the study's grid.
func (st *Study) NumPoints() int {
	n := 0
	for _, s := range st.Series {
		n += len(s.Points)
	}
	return n
}

// Defaults fills zero fields with the paper-scaled geometry.
func (c *Config) Defaults() {
	if c.Workload == "" {
		c.Workload = "easy"
	}
	if len(c.Nodes) == 0 {
		c.Nodes = []int{1, 2, 4, 8, 16}
	}
	if c.PPN == 0 {
		c.PPN = 8
	}
	if c.BlockSize == 0 {
		c.BlockSize = 16 << 20
	}
	if c.TransferSize == 0 {
		c.TransferSize = 2 << 20
	}
	if c.Segments == 0 {
		c.Segments = 1
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if c.Testbed.ServerNodes == 0 {
		c.Testbed = cluster.NEXTGenIO()
	}
	if c.Seed == 0 {
		c.Seed = c.Testbed.Seed
	}
}

// EasyVariants returns the paper's Figure 1 series: the DFS API at S1, S2,
// and SX, plus MPI-I/O and HDF5 through the DFuse mount (class-matched to
// S2 so the DFS-vs-MPI-I/O comparison isolates the interface).
func EasyVariants() []Variant {
	return []Variant{
		{Label: "daos S1", API: ior.APIDFS, Class: placement.S1},
		{Label: "daos S2", API: ior.APIDFS, Class: placement.S2},
		{Label: "daos SX", API: ior.APIDFS, Class: placement.SX},
		{Label: "mpiio (dfuse)", API: ior.APIMPIIO, Class: placement.S2},
		{Label: "hdf5 (dfuse)", API: ior.APIHDF5, Class: placement.S2},
	}
}

// HardVariants returns the paper's Figure 2 series: the interfaces over a
// single shared SX file.
func HardVariants() []Variant {
	return []Variant{
		{Label: "daos (DFS)", API: ior.APIDFS, Class: placement.SX},
		{Label: "mpiio (dfuse)", API: ior.APIMPIIO, Class: placement.SX},
		{Label: "hdf5 (dfuse)", API: ior.APIHDF5, Class: placement.SX},
	}
}

// Run executes the sweep on a worker pool sized by cfg.Parallelism. Each
// (variant, node-count) point runs on a fresh testbed so points are fully
// independent (and memory from prior points is reclaimed). The returned
// Study always covers the whole grid; the error joins any point failures.
func Run(cfg Config) (*Study, error) {
	return (&Runner{}).Run(cfg)
}

// IOR returns the IOR configuration every point of variant v runs: both
// phases, task reordering on, and a file per process for the easy
// workload.
func (c Config) IOR(v Variant) ior.Config {
	return ior.Config{
		API:          v.API,
		FilePerProc:  c.Workload == "easy",
		BlockSize:    c.BlockSize,
		TransferSize: c.TransferSize,
		Segments:     c.Segments,
		Iterations:   c.Iterations,
		DoWrite:      true,
		DoRead:       true,
		ReorderTasks: true,
		Class:        v.Class,
		Collective:   v.Collective,
	}
}

// runPoint measures one (variant, nodes) cell on a testbed seeded with the
// point's derived seed. With a non-nil arena the testbed's simulation
// kernel is recycled from the arena's previous point instead of built from
// nothing; measured results are byte-identical either way.
func runPoint(cfg Config, v Variant, nodes int, seed uint64, arena *sim.Arena) (Point, error) {
	iorCfg := cfg.IOR(v)
	if err := iorCfg.Validate(); err != nil {
		return Point{}, err // before building a testbed the run cannot use
	}
	cfg.Testbed.Seed = seed
	var tb *cluster.Testbed
	if arena == nil {
		tb = cluster.New(cfg.Testbed)
	} else {
		tb = cluster.NewOn(arena.Get(seed), cfg.Testbed)
	}
	// Shut the testbed down when the point is done: server event loops exit
	// and the garbage collector can reclaim the point's data; otherwise a
	// long sweep accumulates every point's working set.
	defer tb.Shutdown()
	var res *ior.Result
	var runErr error
	var faults *cluster.FaultRun
	tb.Run(func(p *sim.Proc) {
		var err error
		// The fault plan's clock starts with the workload body, before pool
		// and namespace setup, so event times are pure config.
		faults, err = tb.InjectFaults(p, cfg.FaultPlan, cfg.Rebuild)
		if err != nil {
			runErr = err
			return
		}
		defer func() {
			if faults != nil {
				faults.Finish(p)
			}
		}()
		env, err := ior.NewEnv(p, tb, nodes, cfg.PPN)
		if err != nil {
			runErr = err
			return
		}
		res, runErr = ior.Run(p, env, iorCfg)
	})
	if runErr != nil {
		return Point{}, runErr
	}
	pt := Point{
		Nodes:     nodes,
		Ranks:     nodes * cfg.PPN,
		WriteGiBs: res.Write.MaxGiBs,
		ReadGiBs:  res.Read.MaxGiBs,
	}
	if faults != nil {
		rep := faults.Report()
		pt.DegradedGiBs = rep.DegradedGiBs
		pt.RecoverySec = rep.RecoverySec
		pt.MapTransitions = rep.MapTransitions
	}
	return pt, nil
}

// Table renders one panel (write or read) as an aligned text table with
// variants as rows and node counts as columns.
func (st *Study) Table(write bool) string {
	var b strings.Builder
	phase := "read"
	if write {
		phase = "write"
	}
	fmt.Fprintf(&b, "%-16s", fmt.Sprintf("%s GiB/s", phase))
	for _, n := range st.Config.Nodes {
		fmt.Fprintf(&b, "%10d", n)
	}
	b.WriteString("  <- client nodes\n")
	for _, s := range st.Series {
		fmt.Fprintf(&b, "%-16s", s.Variant.Label)
		for _, pt := range s.Points {
			v := pt.ReadGiBs
			if write {
				v = pt.WriteGiBs
			}
			fmt.Fprintf(&b, "%10.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the study as CSV (series, phase, nodes, ranks, gibs).
func (st *Study) CSV() string {
	var b strings.Builder
	b.WriteString("workload,series,phase,nodes,ranks,gibs\n")
	for _, s := range st.Series {
		for _, pt := range s.Points {
			fmt.Fprintf(&b, "%s,%s,write,%d,%d,%.4f\n", st.Config.Workload, s.Variant.Label, pt.Nodes, pt.Ranks, pt.WriteGiBs)
			fmt.Fprintf(&b, "%s,%s,read,%d,%d,%.4f\n", st.Config.Workload, s.Variant.Label, pt.Nodes, pt.Ranks, pt.ReadGiBs)
		}
	}
	return b.String()
}

// find returns the series with the given label.
func (st *Study) find(label string) *Series {
	for i := range st.Series {
		if st.Series[i].Variant.Label == label {
			return &st.Series[i]
		}
	}
	return nil
}

// at returns the point at the given node count.
func (s *Series) at(nodes int) *Point {
	for i := range s.Points {
		if s.Points[i].Nodes == nodes {
			return &s.Points[i]
		}
	}
	return nil
}

// Claim is one machine-checked qualitative statement from the paper.
type Claim struct {
	Name   string
	Pass   bool
	Detail string
}

// CheckEasyClaims verifies the paper's Figure 1 statements against an easy
// (file-per-process) study run with EasyVariants.
func (st *Study) CheckEasyClaims() []Claim {
	var claims []Claim
	s1, s2, sx := st.find("daos S1"), st.find("daos S2"), st.find("daos SX")
	mpiio, hdf5 := st.find("mpiio (dfuse)"), st.find("hdf5 (dfuse)")
	if s1 == nil || s2 == nil || sx == nil || mpiio == nil || hdf5 == nil {
		return []Claim{{Name: "series present", Pass: false, Detail: "missing a Figure 1 series"}}
	}
	first := st.Config.Nodes[0]
	last := st.Config.Nodes[len(st.Config.Nodes)-1]

	// "S2 gives the best performance for reading data."
	pass := true
	detail := ""
	for _, n := range st.Config.Nodes {
		best := s2.at(n).ReadGiBs
		for _, other := range []*Series{s1, sx} {
			if other.at(n).ReadGiBs > best*1.05 { // 5% tolerance
				pass = false
				detail += fmt.Sprintf("%s beats S2 at %d nodes; ", other.Variant.Label, n)
			}
		}
	}
	claims = append(claims, Claim{Name: "fig1: S2 best read class", Pass: pass, Detail: detail})

	// "S2 good for writing until the largest number of client nodes" and
	// "full sharding gives the best write performance for high contention
	// but lower performance for fewer writers."
	claims = append(claims, Claim{
		Name: "fig1: SX wins writes at max contention",
		Pass: sx.at(last).WriteGiBs >= s2.at(last).WriteGiBs && sx.at(last).WriteGiBs >= s1.at(last).WriteGiBs,
		Detail: fmt.Sprintf("at %d nodes: SX=%.1f S2=%.1f S1=%.1f",
			last, sx.at(last).WriteGiBs, s2.at(last).WriteGiBs, s1.at(last).WriteGiBs),
	})
	claims = append(claims, Claim{
		Name: "fig1: SX loses writes at few writers",
		Pass: sx.at(first).WriteGiBs <= s2.at(first).WriteGiBs,
		Detail: fmt.Sprintf("at %d nodes: SX=%.1f S2=%.1f",
			first, sx.at(first).WriteGiBs, s2.at(first).WriteGiBs),
	})

	// "DFS API gives very similar performance to MPI-I/O using the DFuse
	// mount" — within 40% at every point, both directions.
	pass, detail = true, ""
	for _, n := range st.Config.Nodes {
		dw, mw := s2.at(n).WriteGiBs, mpiio.at(n).WriteGiBs
		dr, mr := s2.at(n).ReadGiBs, mpiio.at(n).ReadGiBs
		if ratio(dw, mw) > 1.4 || ratio(dr, mr) > 1.4 {
			pass = false
			detail += fmt.Sprintf("gap at %d nodes (w %.1f/%.1f, r %.1f/%.1f); ", n, dw, mw, dr, mr)
		}
	}
	claims = append(claims, Claim{Name: "fig1: DFS ~ MPI-I/O over dfuse", Pass: pass, Detail: detail})

	// "HDF5 using the DFuse mount gives much lower performance, both for
	// read and write": HDF5 must be strictly the lowest line at every
	// point, and clearly lower (<= 0.7x MPI-I/O) in the latency-bound half
	// of the sweep. (Under deep write saturation every interface converges
	// toward the same media ceiling, so the write gap narrows at the
	// largest node counts — see EXPERIMENTS.md.)
	pass, detail = true, ""
	for i, n := range st.Config.Nodes {
		h, m := hdf5.at(n), mpiio.at(n)
		if h.WriteGiBs >= m.WriteGiBs || h.ReadGiBs >= m.ReadGiBs {
			pass = false
			detail += fmt.Sprintf("HDF5 not lowest at %d nodes; ", n)
		}
		if i < len(st.Config.Nodes)/2 {
			if h.WriteGiBs > 0.7*m.WriteGiBs || h.ReadGiBs > 0.7*m.ReadGiBs {
				pass = false
				detail += fmt.Sprintf("HDF5 not much lower at %d nodes; ", n)
			}
		}
	}
	claims = append(claims, Claim{Name: "fig1: HDF5 much lower", Pass: pass, Detail: detail})
	return claims
}

// CheckHardClaims verifies the paper's Figure 2 statements against a hard
// (shared-file) study run with HardVariants.
func (st *Study) CheckHardClaims() []Claim {
	var claims []Claim
	dfsS, mpiioS, hdf5S := st.find("daos (DFS)"), st.find("mpiio (dfuse)"), st.find("hdf5 (dfuse)")
	if dfsS == nil || mpiioS == nil || hdf5S == nil {
		return []Claim{{Name: "series present", Pass: false, Detail: "missing a Figure 2 series"}}
	}

	// "Similar performance achieved across interfaces" for reads: spread
	// within ~2.5x at every point.
	pass, detail := true, ""
	for _, n := range st.Config.Nodes {
		vals := []float64{dfsS.at(n).ReadGiBs, mpiioS.at(n).ReadGiBs, hdf5S.at(n).ReadGiBs}
		if spread(vals) > 2.5 {
			pass = false
			detail += fmt.Sprintf("read spread %.1fx at %d nodes; ", spread(vals), n)
		}
	}
	claims = append(claims, Claim{Name: "fig2: interfaces converge on reads", Pass: pass, Detail: detail})

	// "The DFS API gives the highest write bandwidth."
	pass, detail = true, ""
	for _, n := range st.Config.Nodes {
		d := dfsS.at(n).WriteGiBs
		if mpiioS.at(n).WriteGiBs > d*1.05 || hdf5S.at(n).WriteGiBs > d*1.05 {
			pass = false
			detail += fmt.Sprintf("DFS not highest write at %d nodes; ", n)
		}
	}
	claims = append(claims, Claim{Name: "fig2: DFS highest write", Pass: pass, Detail: detail})
	return claims
}

// CheckCrossClaims verifies that easy and hard overall performance are
// similar (the paper's contrast with parallel filesystems), comparing the
// same DFS interface across the two studies at the largest node count.
func CheckCrossClaims(easy, hard *Study) []Claim {
	e := easy.find("daos SX")
	h := hard.find("daos (DFS)")
	if e == nil || h == nil {
		return []Claim{{Name: "cross: series present", Pass: false}}
	}
	last := easy.Config.Nodes[len(easy.Config.Nodes)-1]
	ep, hp := e.at(last), h.at(last)
	pass := ratio(ep.WriteGiBs, hp.WriteGiBs) < 2.0 && ratio(ep.ReadGiBs, hp.ReadGiBs) < 2.0
	return []Claim{{
		Name: "cross: shared-file ~ file-per-process",
		Pass: pass,
		Detail: fmt.Sprintf("at %d nodes: easy w/r %.1f/%.1f vs hard %.1f/%.1f",
			last, ep.WriteGiBs, ep.ReadGiBs, hp.WriteGiBs, hp.ReadGiBs),
	}}
}

// ratio returns max(a,b)/min(a,b).
func ratio(a, b float64) float64 {
	if a < b {
		a, b = b, a
	}
	if b == 0 {
		return 1e9
	}
	return a / b
}

// spread returns max/min over vals.
func spread(vals []float64) float64 {
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return ratio(max, min)
}
