// Command iorsim runs a single IOR configuration on the simulated
// NEXTGenIO-class cluster and prints an IOR-style summary. With a
// comma-separated -nodes list it instead sweeps the node axis through the
// parallel study runner and prints the study tables; -parallel bounds the
// worker pool (results are identical at any setting).
//
// Example (the paper's easy mode, DFS backend, S2 objects, 8 client nodes):
//
//	iorsim -api DFS -fpp -class S2 -nodes 8 -ppn 8 -b 16m -t 2m -C
//
// Sweep example (4 points, fanned out across cores):
//
//	iorsim -api DFS -fpp -class S2 -nodes 1,2,4,8 -parallel 4
//
// Sweeps can memoize completed points through the content-addressed cache
// (-cache, -cache-dir; see internal/cache): a repeated sweep replays
// byte-identical tables without simulating and reports its hit rate.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"daosim/internal/cache"
	"daosim/internal/cluster"
	"daosim/internal/core"
	"daosim/internal/ior"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

func main() {
	var (
		api        = flag.String("api", "DFS", "backend: POSIX, DFS, MPIIO, or HDF5")
		fpp        = flag.Bool("fpp", false, "file per process (IOR easy); default shared file (hard)")
		class      = flag.String("class", "SX", "object class: S1, S2, S4, S8, SX")
		nodes      = flag.String("nodes", "4", "client nodes; a comma-separated list sweeps the node axis")
		ppn        = flag.Int("ppn", 8, "ranks per node")
		block      = flag.String("b", "16m", "block size per rank (e.g. 64m, 1g)")
		transfer   = flag.String("t", "2m", "transfer size (e.g. 1m, 4m)")
		segments   = flag.Int("s", 1, "segments")
		iters      = flag.Int("i", 1, "iterations")
		verify     = flag.Bool("R", false, "verify data on read")
		reorder    = flag.Bool("C", true, "reorder tasks for the read phase")
		collective = flag.Bool("c", false, "collective MPI-I/O")
		random     = flag.Bool("z", false, "random (shuffled) transfer order")
		writeOnly  = flag.Bool("w", false, "write phase only")
		readOnly   = flag.Bool("r", false, "read phase only (requires -w run data; use -w=false -r=false for both)")
		parallel   = flag.Int("parallel", 0, "max concurrent sweep points (0 = all cores, 1 = sequential)")
		seed       = flag.Uint64("seed", 0, "study seed (0 = default); every point, single or swept, runs on a seed derived from it so single runs match sweep rows")
		cacheOn    = flag.Bool("cache", false, "memoize sweep points (sweeps only; disk tier under ~/.daosim/cache unless -cache-dir overrides)")
		cacheDir   = flag.String("cache-dir", "", "on-disk cache tier directory (implies -cache; explicitly empty = memory-only)")
		cacheMax   = flag.Int64("cache-max-bytes", 0, "disk cache tier byte budget; least-recently-used entries are evicted above it (0 = unbounded)")
		cachePeer  = flag.String("cache-peer", "", "peer daosd URL whose cache joins the stack as a remote tier (enables caching)")
	)
	flag.Parse()

	cls, err := placement.ClassByName(strings.ToUpper(*class))
	if err != nil {
		log.Fatal(err)
	}

	nodeSweep, sweep, err := parseNodes(*nodes)
	if err != nil {
		fmt.Fprintf(os.Stderr, "iorsim: %v\n", err)
		os.Exit(2)
	}
	if sweep {
		if *verify || *random || *writeOnly || *readOnly || !*reorder {
			log.Fatal("iorsim: -R, -z, -w, -r, and -C=false apply to single-point runs; a -nodes sweep measures both phases with task reorder on")
		}
		pointCache, err := cache.Open(*cacheOn, cache.FlagPassed("cache-dir"), *cacheDir, *cachePeer, *cacheMax)
		if err != nil {
			log.Fatal(err)
		}
		if err := runSweep(nodeSweep, *ppn, ior.API(strings.ToUpper(*api)), cls, *fpp,
			parseSize(*block), parseSize(*transfer), *segments, *iters, *collective, *parallel, *seed, pointCache); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := ior.Config{
		API:           ior.API(strings.ToUpper(*api)),
		FilePerProc:   *fpp,
		BlockSize:     parseSize(*block),
		TransferSize:  parseSize(*transfer),
		Segments:      *segments,
		Iterations:    *iters,
		DoWrite:       !*readOnly,
		DoRead:        !*writeOnly,
		Verify:        *verify,
		ReorderTasks:  *reorder,
		Class:         cls.ID,
		Collective:    *collective,
		RandomOffsets: *random,
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	// Seed the testbed exactly as the runner seeds this point in a sweep,
	// so `-nodes 8` and the 8-node row of `-nodes 8,16` report the same
	// numbers.
	tbCfg := cluster.NEXTGenIO()
	base := *seed
	if base == 0 {
		base = tbCfg.Seed
	}
	tbCfg.Seed = core.PointSeed(base, 0, nodeSweep[0])
	tb := cluster.New(tbCfg)
	defer tb.Shutdown()
	var res *ior.Result
	elapsed := tb.Run(func(p *sim.Proc) {
		env, err := ior.NewEnv(p, tb, nodeSweep[0], *ppn)
		if err != nil {
			log.Fatal(err)
		}
		res, err = ior.Run(p, env, cfg)
		if err != nil {
			log.Fatal(err)
		}
	})
	fmt.Print(res)
	fmt.Printf("  verify errors: %d\n", res.VerifyErrors)
	fmt.Printf("  virtual time:  %v\n", elapsed)
}

// runSweep fans a node sweep out through the core study runner, memoizing
// points through c when non-nil. Flags no IOR run accepts fail once,
// before the runner builds a testbed for any point.
func runSweep(nodes []int, ppn int, api ior.API, cls placement.Class, fpp bool,
	block, transfer int64, segments, iters int, collective bool, parallel int, seed uint64, c *cache.Cache) error {
	workload := "hard"
	if fpp {
		workload = "easy"
	}
	label := strings.ToLower(string(api)) + " " + cls.Name
	cfg := core.Config{
		Workload:     workload,
		Nodes:        nodes,
		PPN:          ppn,
		BlockSize:    block,
		TransferSize: transfer,
		Segments:     segments,
		Iterations:   iters,
		Variants:     []core.Variant{{Label: label, API: api, Class: cls.ID, Collective: collective}},
		Seed:         seed,
	}
	iorCfg := cfg.IOR(cfg.Variants[0])
	if err := iorCfg.Validate(); err != nil {
		return err
	}
	st, err := (&core.Runner{Parallelism: parallel, Cache: c}).Run(cfg)
	if err != nil {
		return err
	}
	fmt.Print(st.Table(true))
	fmt.Print(st.Table(false))
	fmt.Printf("swept %d points in %v wall-clock\n", len(nodes), st.Elapsed)
	if c != nil {
		fmt.Println(c.Stats())
	}
	return nil
}

// parseNodes parses the -nodes flag: a single count or a comma-separated
// sweep list. Whitespace around entries is ignored, empty entries (doubled
// or trailing commas) are skipped, and duplicate counts collapse to their
// first occurrence — a sweep point is a pure function of its node count, so
// repeating it would only print the same row twice. sweep reports whether
// the flag listed more than one entry before dedup, so `-nodes 8,8` still
// runs (and validates its flags) as a sweep, not a single-point run.
func parseNodes(s string) (out []int, sweep bool, err error) {
	seen := make(map[int]bool)
	entries := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, false, fmt.Errorf("bad node count %q", part)
		}
		if n <= 0 {
			return nil, false, fmt.Errorf("node count must be positive, got %d", n)
		}
		entries++
		if seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, false, fmt.Errorf("empty -nodes list %q", s)
	}
	return out, entries > 1, nil
}

// parseSize parses IOR-style sizes: 4k, 2m, 1g, or plain bytes.
func parseSize(s string) int64 {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, strings.TrimSuffix(s, "g")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad size %q\n", s)
		os.Exit(2)
	}
	return n * mult
}
