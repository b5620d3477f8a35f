package ior_test

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"daosim/internal/cluster"
	"daosim/internal/ior"
	"daosim/internal/sim"
)

type matrixCase struct {
	name string
	cfg  ior.Config
}

// matrixCases is every backend shape IOR can drive: each API, file per
// process and shared, unverified, verified with task reordering, and
// verified random offsets over two segments, plus collective MPI-I/O.
func matrixCases() []matrixCase {
	var cases []matrixCase
	add := func(name string, cfg ior.Config) {
		cfg.BlockSize, cfg.TransferSize = 256<<10, 64<<10
		cases = append(cases, matrixCase{name, cfg})
	}
	for _, api := range []ior.API{ior.APIDFS, ior.APIPosix, ior.APIMPIIO, ior.APIHDF5} {
		for _, fpp := range []bool{true, false} {
			shape := string(api) + "/shared"
			if fpp {
				shape = string(api) + "/fpp"
			}
			add(shape+"/plain", ior.Config{API: api, FilePerProc: fpp})
			add(shape+"/verify-reorder", ior.Config{API: api, FilePerProc: fpp, Verify: true, ReorderTasks: true})
			add(shape+"/random-2seg", ior.Config{API: api, FilePerProc: fpp, Verify: true, RandomOffsets: true, Segments: 2})
		}
	}
	add("MPIIO/collective/plain", ior.Config{API: ior.APIMPIIO, Collective: true})
	add("MPIIO/collective/verify-reorder", ior.Config{API: ior.APIMPIIO, Collective: true, Verify: true, ReorderTasks: true})
	return cases
}

func spans(ts []time.Duration) string {
	s := make([]string, len(ts))
	for i, t := range ts {
		s[i] = fmt.Sprint(t.Nanoseconds())
	}
	return "[" + strings.Join(s, " ") + "]"
}

// TestBackendMatrixGolden pins every backend shape to the nanosecond of
// virtual time: the write and read phase spans and the verify error count
// of each run, on 2 nodes x 2 ranks of the small testbed. A refactor of
// the data path must leave the golden byte-identical. A deliberate physics
// change deletes the golden, reruns the test to record a new one, and
// bumps sim.KernelVersion.
func TestBackendMatrixGolden(t *testing.T) {
	var got strings.Builder
	for _, tc := range matrixCases() {
		tb := cluster.New(cluster.Small())
		var res *ior.Result
		tb.Run(func(p *sim.Proc) {
			env, err := ior.NewEnv(p, tb, 2, 2)
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
				return
			}
			if res, err = ior.Run(p, env, tc.cfg); err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
		})
		tb.Shutdown()
		if res == nil {
			continue
		}
		fmt.Fprintf(&got, "%s write=%s read=%s verify_errors=%d\n",
			tc.name, spans(res.Write.Times), spans(res.Read.Times), res.VerifyErrors)
	}
	if t.Failed() {
		t.FailNow()
	}
	path := filepath.Join("testdata", "backend_matrix.golden")
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded a new %s; review it and rerun", path)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("backend matrix drifted from the golden.\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
