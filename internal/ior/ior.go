// Package ior reimplements the IOR parallel I/O benchmark over the
// simulated cluster: easy mode (file-per-process) and hard mode (single
// shared file), a configurable transfer/block/segment geometry, write and
// read phases with optional task reordering and data verification, and the
// four backends the paper exercises — POSIX (through DFuse), DFS (libdfs
// direct), MPI-I/O (through DFuse), and HDF5 (through DFuse).
//
// Reported bandwidths follow IOR's convention: aggregate data moved divided
// by the span from the first rank entering the phase to the last rank
// leaving it (open, transfers, fsync, and close all inside the window), max
// and mean over repetitions.
package ior

import (
	"errors"
	"fmt"
	"time"

	"encoding/binary"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/fabric"
	"daosim/internal/mpi"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// API selects the I/O backend.
type API string

// Backends, matching IOR's -a option (POSIX runs over the DFuse mount).
const (
	APIPosix API = "POSIX"
	APIDFS   API = "DFS"
	APIMPIIO API = "MPIIO"
	APIHDF5  API = "HDF5"
)

// Config is one IOR run configuration.
type Config struct {
	API API
	// FilePerProc selects easy mode (one file per rank); otherwise hard
	// mode (single shared file).
	FilePerProc bool
	// BlockSize is the contiguous bytes each rank owns per segment (-b).
	BlockSize int64
	// TransferSize is the bytes per I/O call (-t).
	TransferSize int64
	// Segments repeats the block pattern (-s).
	Segments int
	// Iterations repeats the whole test (-i); stats aggregate over them.
	Iterations int
	// DoWrite / DoRead select the phases (-w / -r).
	DoWrite, DoRead bool
	// Verify checks data contents during the read phase (-R).
	Verify bool
	// ReorderTasks makes ranks read data written by their neighbour (-C).
	ReorderTasks bool
	// Class is the DAOS object class for the test file(s).
	Class placement.ClassID
	// Collective uses collective MPI-I/O calls (-c; MPIIO on a shared
	// file only, which Validate enforces).
	Collective bool
	// RandomOffsets visits each rank's transfers in a deterministic
	// shuffled order (-z), the "more varied usage patterns" the paper's
	// SV points at. Incompatible with Collective (the shuffle desyncs the
	// ranks' collective call sequences).
	RandomOffsets bool
}

// Validate fills defaults and sanity-checks the configuration.
func (c *Config) Validate() error {
	if c.BlockSize <= 0 || c.TransferSize <= 0 {
		return errors.New("ior: block and transfer sizes must be positive")
	}
	if c.BlockSize%c.TransferSize != 0 {
		return errors.New("ior: block size must be a multiple of transfer size")
	}
	if c.Segments <= 0 {
		c.Segments = 1
	}
	if c.Iterations <= 0 {
		c.Iterations = 1
	}
	if !c.DoWrite && !c.DoRead {
		c.DoWrite, c.DoRead = true, true
	}
	if c.Class == placement.SAny {
		c.Class = placement.SX
	}
	if c.RandomOffsets && c.Collective {
		return errors.New("ior: random offsets cannot be combined with collective I/O")
	}
	if c.Collective && (c.API != APIMPIIO || c.FilePerProc) {
		return errors.New("ior: collective I/O requires MPI-I/O on a shared file")
	}
	switch c.API {
	case APIPosix, APIDFS, APIMPIIO, APIHDF5:
	default:
		return fmt.Errorf("ior: unknown API %q", c.API)
	}
	return nil
}

// Stats summarize one phase across iterations, in GiB/s.
type Stats struct {
	MaxGiBs  float64
	MinGiBs  float64
	MeanGiBs float64
	// Times are the per-iteration phase spans.
	Times []time.Duration
}

func (s *Stats) observe(gibs float64, span time.Duration) {
	if len(s.Times) == 0 {
		s.MaxGiBs, s.MinGiBs = gibs, gibs
	}
	if gibs > s.MaxGiBs {
		s.MaxGiBs = gibs
	}
	if gibs < s.MinGiBs {
		s.MinGiBs = gibs
	}
	n := float64(len(s.Times))
	s.MeanGiBs = (s.MeanGiBs*n + gibs) / (n + 1)
	s.Times = append(s.Times, span)
}

// Result is a completed run.
type Result struct {
	Config Config
	Ranks  int
	// TotalBytes is the aggregate data moved per phase per iteration.
	TotalBytes int64
	Write      Stats
	Read       Stats
	// VerifyErrors counts data check mismatches (0 when Verify passed).
	VerifyErrors int64
}

// Env carries the per-rank handles IOR runs need: an MPI world over the
// chosen client nodes, a pool, and per-rank DAOS clients. Each Run gets a
// fresh container so runs never see each other's data.
type Env struct {
	TB           *cluster.Testbed
	World        *mpi.World
	RanksPerNode int

	rankNodes []*fabric.Node
	clients   []*daos.Client
	admin     *daos.Client
	pool      *daos.Pool
	contSeq   int
}

// NewEnv builds an MPI world of nodes*ppn ranks on the testbed's first
// nodes client nodes, creating (or reusing) the benchmark pool. It must run
// inside tb.Run.
func NewEnv(p *sim.Proc, tb *cluster.Testbed, nodes, ppn int) (*Env, error) {
	if nodes > len(tb.Clients) {
		return nil, fmt.Errorf("ior: %d nodes requested, testbed has %d", nodes, len(tb.Clients))
	}
	if ppn <= 0 {
		return nil, errors.New("ior: ranks per node must be positive")
	}
	env := &Env{TB: tb, RanksPerNode: ppn}
	ranks := nodes * ppn
	for r := 0; r < ranks; r++ {
		env.rankNodes = append(env.rankNodes, tb.Clients[r/ppn])
	}
	env.World = mpi.NewWorld(tb.Sim, tb.Fabric, env.rankNodes)

	env.admin = tb.NewClient(tb.Clients[0], 0xFFFFFF)
	pool, err := env.admin.Connect(p, "ior-pool")
	if err != nil {
		pool, err = env.admin.CreatePool(p, "ior-pool")
		if err != nil {
			return nil, fmt.Errorf("ior: pool setup: %w", err)
		}
	}
	env.pool = pool
	for r := 0; r < ranks; r++ {
		env.clients = append(env.clients, tb.NewClient(env.rankNodes[r], uint32(r+1)))
	}
	return env, nil
}

// namespace is one run's fresh container with per-rank filesystem mounts
// and per-node dfuse daemons.
type namespace struct {
	fs     []*dfs.FS      // per rank
	mounts []*dfuse.Mount // per rank (shared between ranks on a node)
}

// newNamespace creates a fresh container and mounts it everywhere.
func (env *Env) newNamespace(p *sim.Proc, class placement.ClassID) (*namespace, error) {
	env.contSeq++
	label := fmt.Sprintf("ior-c%04d", env.contSeq)
	if _, err := env.pool.CreateContainer(p, label, daos.ContProps{Class: class}); err != nil {
		return nil, fmt.Errorf("ior: container: %w", err)
	}
	ns := &namespace{}
	mountByNode := make(map[*fabric.Node]*dfuse.Mount)
	for r, cl := range env.clients {
		pl, err := cl.Connect(p, "ior-pool")
		if err != nil {
			return nil, err
		}
		ct, err := pl.OpenContainer(p, label)
		if err != nil {
			return nil, err
		}
		fsys, err := dfs.Mount(p, ct)
		if err != nil {
			return nil, err
		}
		ns.fs = append(ns.fs, fsys)
		node := env.rankNodes[r]
		if _, ok := mountByNode[node]; !ok {
			// One dfuse daemon per node, backed by the first local rank's
			// DFS mount — all local ranks funnel through it, as through a
			// real mount point.
			mountByNode[node] = dfuse.NewMount(env.TB.Sim, node, fsys, dfuse.DefaultCosts())
		}
		ns.mounts = append(ns.mounts, mountByNode[node])
	}
	return ns, nil
}

// pattern fills buf with IOR-style verifiable data: a function of the
// writing rank and the absolute byte offset, one little-endian 8-byte word
// at a time from the start of buf, the word at offset x being
// seed ^ mix(x). A tail shorter than a word holds the low bytes of the word
// at its offset, so every byte of a transfer is patterned whatever its size.
func pattern(buf []byte, srcRank int, absOff int64) {
	seed, x := patternSeed(srcRank), uint64(absOff)
	if x+uint64(len(buf)) <= mixLinearBelow {
		for y := x * mixMul; len(buf) >= 32; buf, x = buf[32:], x+32 {
			b := buf[:32:32]
			binary.LittleEndian.PutUint64(b[0:], seed^y^y>>33)
			y += mixStep
			binary.LittleEndian.PutUint64(b[8:], seed^y^y>>33)
			y += mixStep
			binary.LittleEndian.PutUint64(b[16:], seed^y^y>>33)
			y += mixStep
			binary.LittleEndian.PutUint64(b[24:], seed^y^y>>33)
			y += mixStep
		}
	}
	for ; len(buf) >= 8; buf, x = buf[8:], x+8 {
		binary.LittleEndian.PutUint64(buf, seed^mix(x))
	}
	for i, w := 0, seed^mix(x); i < len(buf); i, w = i+1, w>>8 {
		buf[i] = byte(w)
	}
}

// hasPattern reports whether buf holds what pattern(buf, srcRank, absOff)
// writes. It compares each word as it computes it, in one pass with no
// second buffer, and stops at the first mismatch.
func hasPattern(buf []byte, srcRank int, absOff int64) bool {
	seed, x := patternSeed(srcRank), uint64(absOff)
	if x+uint64(len(buf)) <= mixLinearBelow {
		for y := x * mixMul; len(buf) >= 32; buf, x = buf[32:], x+32 {
			b := buf[:32:32]
			diff := binary.LittleEndian.Uint64(b[0:]) ^ seed ^ y ^ y>>33
			y += mixStep
			diff |= binary.LittleEndian.Uint64(b[8:]) ^ seed ^ y ^ y>>33
			y += mixStep
			diff |= binary.LittleEndian.Uint64(b[16:]) ^ seed ^ y ^ y>>33
			y += mixStep
			diff |= binary.LittleEndian.Uint64(b[24:]) ^ seed ^ y ^ y>>33
			y += mixStep
			if diff != 0 {
				return false
			}
		}
	}
	for ; len(buf) >= 8; buf, x = buf[8:], x+8 {
		if binary.LittleEndian.Uint64(buf) != seed^mix(x) {
			return false
		}
	}
	for i, w := 0, seed^mix(x); i < len(buf); i, w = i+1, w>>8 {
		if buf[i] != byte(w) {
			return false
		}
	}
	return true
}

func patternSeed(srcRank int) uint64 { return uint64(srcRank)*0x9E3779B97F4A7C15 + 0x1234567 }

const (
	mixMul = 0xFF51AFD7ED558CCD
	// Below mixLinearBelow, mix's first xor-shift is the identity, so
	// x*mixMul grows by mixStep per 8-byte word. Where a transfer lies
	// wholly below, pattern and hasPattern step it with an add instead of
	// the multiply, four words a pass so the loop's own work is spread over
	// more words; the general loop takes the last few words.
	mixLinearBelow = 1 << 33
	mixStep        = (8 * mixMul) & (1<<64 - 1)
)

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= mixMul
	x ^= x >> 33
	return x
}

// opOrder returns the (segment, transfer) visit order for one rank:
// sequential by default, deterministically shuffled with -z.
func (c *Config) opOrder(rank, transfersPerBlock int) [][2]int {
	order := make([][2]int, 0, c.Segments*transfersPerBlock)
	for s := 0; s < c.Segments; s++ {
		for t := 0; t < transfersPerBlock; t++ {
			order = append(order, [2]int{s, t})
		}
	}
	if c.RandomOffsets {
		rng := sim.NewRNG(uint64(rank)*0x9E3779B97F4A7C15 + 0xDA05)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// offsets computes the absolute file offset of one transfer.
func (c *Config) offset(rank, ranks, segment, transfer int) int64 {
	t := int64(transfer) * c.TransferSize
	if c.FilePerProc {
		return int64(segment)*c.BlockSize + t
	}
	return (int64(segment)*int64(ranks)+int64(rank))*c.BlockSize + t
}

// Run executes one IOR configuration on the environment. It must run inside
// tb.Run (the same process that built the Env).
func Run(p *sim.Proc, env *Env, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ranks := env.World.Size()
	res := &Result{
		Config:     cfg,
		Ranks:      ranks,
		TotalBytes: int64(ranks) * cfg.BlockSize * int64(cfg.Segments),
	}
	for iter := 0; iter < cfg.Iterations; iter++ {
		ns, err := env.newNamespace(p, cfg.Class)
		if err != nil {
			return nil, err
		}
		if err := runIteration(p, env, ns, cfg, iter, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runIteration performs the write and read phases once.
func runIteration(p *sim.Proc, env *Env, ns *namespace, cfg Config, iter int, res *Result) error {
	ranks := env.World.Size()
	dir := fmt.Sprintf("/ior-run%02d", iter)
	var firstErr error
	noteErr := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// The namespace directory exists before anyone opens files.
	if err := ns.fs[0].MkdirAll(p, dir); err != nil {
		return err
	}

	transfersPerBlock := int(cfg.BlockSize / cfg.TransferSize)
	var writeSpan, readSpan time.Duration

	env.World.Parallel(p, func(cp *sim.Proc, r *mpi.Rank) {
		be := newBackend(&cfg, env, ns, r)
		path := func(fileRank int) string {
			if cfg.FilePerProc {
				return fmt.Sprintf("%s/testFile.%08d", dir, fileRank)
			}
			return dir + "/testFile"
		}

		if cfg.DoWrite {
			r.Barrier(cp)
			start := cp.Now()
			f, err := be.openFile(cp, path(r.ID()), true)
			if err != nil {
				noteErr(fmt.Errorf("rank %d create: %w", r.ID(), err))
				return
			}
			// Verified transfers each carry a fresh pattern-filled buffer,
			// which the store keeps. Without verification nothing reads the
			// contents back, and every layer's timing depends only on
			// lengths: each write is length-only (a nil source), so no
			// layer allocates, fills or retains its bytes.
			for _, st := range cfg.opOrder(r.ID(), transfersPerBlock) {
				off := cfg.offset(r.ID(), ranks, st[0], st[1])
				var buf []byte
				if cfg.Verify {
					buf = make([]byte, cfg.TransferSize)
					pattern(buf, r.ID(), off)
				}
				if err := f.WriteAtFrom(cp, off, cfg.TransferSize, buf); err != nil {
					noteErr(fmt.Errorf("rank %d write: %w", r.ID(), err))
					return
				}
			}
			noteErr(f.Close(cp))
			r.Barrier(cp)
			span := cp.Now() - start
			writeSpan = r.AllreduceDuration(cp, span, "max")
		}

		if cfg.DoRead {
			// -C: read the data written by the next rank over.
			srcRank := r.ID()
			if cfg.ReorderTasks {
				srcRank = (r.ID() + 1) % ranks
			}
			r.Barrier(cp)
			start := cp.Now()
			f, err := be.openFile(cp, path(srcRank), false)
			if err != nil {
				noteErr(fmt.Errorf("rank %d open: %w", r.ID(), err))
				return
			}
			// With verification on, one reused buffer receives every
			// transfer (ReadAtInto overwrites all n bytes, holes as zeros),
			// and hasPattern checks it against the pattern as it computes
			// it. Without it the contents are irrelevant: a nil destination
			// simulates each read with identical timing while the data path
			// materializes nothing — real IOR still moves the bytes, but the
			// simulation only needs their geometry.
			var readBuf []byte
			if cfg.Verify {
				readBuf = make([]byte, cfg.TransferSize)
			}
			for _, st := range cfg.opOrder(r.ID(), transfersPerBlock) {
				off := cfg.offset(srcRank, ranks, st[0], st[1])
				if err := f.ReadAtInto(cp, off, cfg.TransferSize, readBuf); err != nil {
					noteErr(fmt.Errorf("rank %d read: %w", r.ID(), err))
					return
				}
				if cfg.Verify && !hasPattern(readBuf, srcRank, off) {
					res.VerifyErrors++
				}
			}
			noteErr(f.Close(cp))
			r.Barrier(cp)
			span := cp.Now() - start
			readSpan = r.AllreduceDuration(cp, span, "max")
		}
	})
	if firstErr != nil {
		return firstErr
	}
	gib := float64(res.TotalBytes) / float64(int64(1)<<30)
	if cfg.DoWrite {
		res.Write.observe(gib/writeSpan.Seconds(), writeSpan)
	}
	if cfg.DoRead {
		res.Read.observe(gib/readSpan.Seconds(), readSpan)
	}
	return nil
}

// String renders a result like IOR's summary table.
func (r *Result) String() string {
	out := fmt.Sprintf("IOR %s fpp=%v ranks=%d xfer=%s block=%s class=%s\n",
		r.Config.API, r.Config.FilePerProc, r.Ranks,
		fmtBytes(r.Config.TransferSize), fmtBytes(r.Config.BlockSize), className(r.Config.Class))
	if len(r.Write.Times) > 0 {
		out += fmt.Sprintf("  write  max %8.2f GiB/s  mean %8.2f GiB/s\n", r.Write.MaxGiBs, r.Write.MeanGiBs)
	}
	if len(r.Read.Times) > 0 {
		out += fmt.Sprintf("  read   max %8.2f GiB/s  mean %8.2f GiB/s\n", r.Read.MaxGiBs, r.Read.MeanGiBs)
	}
	return out
}

func className(c placement.ClassID) string {
	cls, err := placement.LookupClass(c)
	if err != nil {
		return fmt.Sprintf("%#x", uint16(c))
	}
	return cls.Name
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30 && n%(1<<30) == 0:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
