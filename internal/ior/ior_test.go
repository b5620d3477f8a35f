package ior_test

import (
	"runtime"
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/ior"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// runCfg executes one IOR config on a small testbed with 4 ranks over 2
// nodes and returns the result.
func runCfg(t *testing.T, cfg ior.Config) *ior.Result {
	t.Helper()
	tb := cluster.New(cluster.Small())
	var res *ior.Result
	tb.Run(func(p *sim.Proc) {
		env, err := ior.NewEnv(p, tb, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		res, err = ior.Run(p, env, cfg)
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return res
}

// base returns a small verified configuration.
func base(api ior.API, fpp bool) ior.Config {
	return ior.Config{
		API:          api,
		FilePerProc:  fpp,
		BlockSize:    4 << 20,
		TransferSize: 1 << 20,
		Segments:     1,
		Iterations:   1,
		DoWrite:      true,
		DoRead:       true,
		Verify:       true,
		ReorderTasks: true,
		Class:        placement.S2,
	}
}

func checkResult(t *testing.T, res *ior.Result) {
	t.Helper()
	if res.VerifyErrors != 0 {
		t.Fatalf("verify errors: %d", res.VerifyErrors)
	}
	if res.Write.MaxGiBs <= 0 || res.Read.MaxGiBs <= 0 {
		t.Fatalf("non-positive bandwidth: %+v", res)
	}
	if res.TotalBytes != int64(res.Ranks)*4<<20 {
		t.Fatalf("total bytes = %d", res.TotalBytes)
	}
}

func TestEasyModeAllAPIs(t *testing.T) {
	for _, api := range []ior.API{ior.APIDFS, ior.APIPosix, ior.APIMPIIO, ior.APIHDF5} {
		api := api
		t.Run(string(api), func(t *testing.T) {
			checkResult(t, runCfg(t, base(api, true)))
		})
	}
}

func TestHardModeAllAPIs(t *testing.T) {
	for _, api := range []ior.API{ior.APIDFS, ior.APIPosix, ior.APIMPIIO, ior.APIHDF5} {
		api := api
		t.Run(string(api), func(t *testing.T) {
			checkResult(t, runCfg(t, base(api, false)))
		})
	}
}

func TestCollectiveMPIIO(t *testing.T) {
	cfg := base(ior.APIMPIIO, false)
	cfg.Collective = true
	checkResult(t, runCfg(t, cfg))
}

func TestCollectiveRequiresShared(t *testing.T) {
	cfg := base(ior.APIMPIIO, true)
	cfg.Collective = true
	tb := cluster.New(cluster.Small())
	tb.Run(func(p *sim.Proc) {
		env, err := ior.NewEnv(p, tb, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ior.Run(p, env, cfg); err == nil {
			t.Error("collective FPP accepted")
		}
	})
}

// TestUnverifiedWritesDoNotCopy pins the length-only write path: without
// verification no layer under any API allocates, fills or keeps the bytes
// it writes, the hdf5 sieve included (file-per-process HDF5 is the one
// shape that engages it), so a write phase allocates a small fraction of
// the bytes it writes.
func TestUnverifiedWritesDoNotCopy(t *testing.T) {
	for _, tc := range []struct {
		name       string
		api        ior.API
		fpp        bool
		collective bool
	}{
		{"DFS", ior.APIDFS, false, false},
		{"POSIX", ior.APIPosix, false, false},
		{"MPIIO", ior.APIMPIIO, false, false},
		{"MPIIO collective", ior.APIMPIIO, false, true},
		{"HDF5", ior.APIHDF5, false, false},
		{"HDF5 file-per-process", ior.APIHDF5, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base(tc.api, tc.fpp)
			cfg.Verify, cfg.DoRead = false, false
			cfg.Collective = tc.collective
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res := runCfg(t, cfg)
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= uint64(res.TotalBytes)/16 {
				t.Fatalf("allocated %d bytes to write %d, want under a sixteenth", alloc, res.TotalBytes)
			}
		})
	}
}

// TestLengthOnlyWritesSimulateIdentically pins what a length-only write
// costs: exactly what a content write costs. Each shape runs twice on one
// seed, verified (every write carries its bytes and every read checks
// them) and unverified (length-only writes, reads without a destination).
// Both runs must report bit-identical bandwidths and move the same bytes
// through the engines' media.
func TestLengthOnlyWritesSimulateIdentically(t *testing.T) {
	for _, tc := range []struct {
		name       string
		api        ior.API
		fpp        bool
		collective bool
		class      placement.ClassID
	}{
		{"DFS file-per-process S2", ior.APIDFS, true, false, placement.S2},
		{"POSIX shared SX", ior.APIPosix, false, false, placement.SX},
		{"MPIIO file-per-process S2", ior.APIMPIIO, true, false, placement.S2},
		{"MPIIO collective shared SX", ior.APIMPIIO, false, true, placement.SX},
		{"HDF5 file-per-process S2", ior.APIHDF5, true, false, placement.S2},
		{"HDF5 shared SX", ior.APIHDF5, false, false, placement.SX},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				res        *ior.Result
				mediaWrite int64
				mediaRead  int64
				verify     bool
			}
			run := func(verify bool) outcome {
				cfg := base(tc.api, tc.fpp)
				cfg.Class, cfg.Collective, cfg.Verify = tc.class, tc.collective, verify
				tbCfg := cluster.NEXTGenIO()
				tbCfg.Seed = 42
				tb := cluster.New(tbCfg)
				defer tb.Shutdown()
				var res *ior.Result
				tb.Run(func(p *sim.Proc) {
					env, err := ior.NewEnv(p, tb, 2, 4)
					if err != nil {
						t.Error(err)
						return
					}
					if res, err = ior.Run(p, env, cfg); err != nil {
						t.Error(err)
					}
				})
				if t.Failed() {
					t.FailNow()
				}
				return outcome{res, tb.TotalMediaWrite(), tb.TotalMediaRead(), verify}
			}
			content, lengthOnly := run(true), run(false)
			for _, o := range []outcome{content, lengthOnly} {
				if o.res.VerifyErrors != 0 {
					t.Fatalf("verify=%v: %d verify errors", o.verify, o.res.VerifyErrors)
				}
			}
			c, l := content.res, lengthOnly.res
			if c.Write.MaxGiBs != l.Write.MaxGiBs || c.Read.MaxGiBs != l.Read.MaxGiBs {
				t.Errorf("bandwidth: content write %v read %v GiB/s, length-only write %v read %v GiB/s",
					c.Write.MaxGiBs, c.Read.MaxGiBs, l.Write.MaxGiBs, l.Read.MaxGiBs)
			}
			if content.mediaWrite != lengthOnly.mediaWrite || content.mediaRead != lengthOnly.mediaRead {
				t.Errorf("media bytes: content wrote %d read %d, length-only wrote %d read %d",
					content.mediaWrite, content.mediaRead, lengthOnly.mediaWrite, lengthOnly.mediaRead)
			}
			if content.mediaWrite < c.TotalBytes {
				t.Errorf("media wrote %d bytes, IOR wrote %d", content.mediaWrite, c.TotalBytes)
			}
		})
	}
}

func TestObjectClassesProduceDifferentLayouts(t *testing.T) {
	for _, class := range []placement.ClassID{placement.S1, placement.SX} {
		cfg := base(ior.APIDFS, true)
		cfg.Class = class
		checkResult(t, runCfg(t, cfg))
	}
}

func TestMultipleSegments(t *testing.T) {
	cfg := base(ior.APIDFS, false)
	cfg.Segments = 3
	res := runCfg(t, cfg)
	if res.VerifyErrors != 0 {
		t.Fatalf("verify errors with segments: %d", res.VerifyErrors)
	}
	if res.TotalBytes != int64(res.Ranks)*3*4<<20 {
		t.Fatalf("total bytes = %d", res.TotalBytes)
	}
}

func TestIterationsAggregateStats(t *testing.T) {
	cfg := base(ior.APIDFS, true)
	cfg.Iterations = 3
	cfg.Verify = false
	res := runCfg(t, cfg)
	if len(res.Write.Times) != 3 || len(res.Read.Times) != 3 {
		t.Fatalf("iteration counts: %d/%d", len(res.Write.Times), len(res.Read.Times))
	}
	if res.Write.MaxGiBs < res.Write.MinGiBs {
		t.Fatal("max < min")
	}
	if res.Write.MeanGiBs > res.Write.MaxGiBs || res.Write.MeanGiBs < res.Write.MinGiBs {
		t.Fatalf("mean %v outside [min %v, max %v]", res.Write.MeanGiBs, res.Write.MinGiBs, res.Write.MaxGiBs)
	}
}

func TestWriteOnlyAndReadOnly(t *testing.T) {
	tb := cluster.New(cluster.Small())
	tb.Run(func(p *sim.Proc) {
		env, err := ior.NewEnv(p, tb, 2, 2)
		if err != nil {
			t.Error(err)
			return
		}
		cfg := base(ior.APIDFS, true)
		cfg.DoRead = false
		res, err := ior.Run(p, env, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if len(res.Read.Times) != 0 || len(res.Write.Times) != 1 {
			t.Errorf("phases: write=%d read=%d", len(res.Write.Times), len(res.Read.Times))
		}
	})
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []ior.Config{
		{API: ior.APIDFS}, // no sizes
		{API: ior.APIDFS, BlockSize: 100, TransferSize: 64},     // not a multiple
		{API: "NFS", BlockSize: 1 << 20, TransferSize: 1 << 20}, // unknown API
		// collective MPI-I/O on a file per process
		{API: ior.APIMPIIO, FilePerProc: true, Collective: true, BlockSize: 1 << 20, TransferSize: 1 << 20},
		// collective I/O outside MPI-I/O
		{API: ior.APIPosix, Collective: true, BlockSize: 1 << 20, TransferSize: 1 << 20},
		{API: ior.APIDFS, Collective: true, BlockSize: 1 << 20, TransferSize: 1 << 20},
		{API: ior.APIHDF5, Collective: true, BlockSize: 1 << 20, TransferSize: 1 << 20},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDFuseAPIsSlowerThanDFS(t *testing.T) {
	// The paper's headline interface ordering at small scale: DFS >= MPIIO
	// over dfuse > HDF5 over dfuse (for file-per-process).
	cfg := base(ior.APIDFS, true)
	cfg.Verify = false
	dfsRes := runCfg(t, cfg)
	cfg.API = ior.APIHDF5
	hdf5Res := runCfg(t, cfg)
	if hdf5Res.Write.MaxGiBs >= dfsRes.Write.MaxGiBs {
		t.Errorf("HDF5 write %.2f >= DFS write %.2f", hdf5Res.Write.MaxGiBs, dfsRes.Write.MaxGiBs)
	}
	if hdf5Res.Read.MaxGiBs >= dfsRes.Read.MaxGiBs {
		t.Errorf("HDF5 read %.2f >= DFS read %.2f", hdf5Res.Read.MaxGiBs, dfsRes.Read.MaxGiBs)
	}
}

func TestResultString(t *testing.T) {
	res := runCfg(t, base(ior.APIDFS, true))
	s := res.String()
	if s == "" || len(s) < 20 {
		t.Fatalf("summary too short: %q", s)
	}
}

func TestRandomOffsetsVerified(t *testing.T) {
	cfg := base(ior.APIDFS, true)
	cfg.RandomOffsets = true
	cfg.Segments = 2
	res := runCfg(t, cfg)
	if res.VerifyErrors != 0 {
		t.Fatalf("verify errors with random offsets: %d", res.VerifyErrors)
	}
}

func TestRandomOffsetsSharedFile(t *testing.T) {
	cfg := base(ior.APIPosix, false)
	cfg.RandomOffsets = true
	checkResult(t, runCfg(t, cfg))
}

func TestRandomWithCollectiveRejected(t *testing.T) {
	cfg := base(ior.APIMPIIO, false)
	cfg.Collective = true
	cfg.RandomOffsets = true
	if err := cfg.Validate(); err == nil {
		t.Fatal("random+collective accepted")
	}
}
