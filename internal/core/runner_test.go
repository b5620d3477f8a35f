package core

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"daosim/internal/ior"
	"daosim/internal/placement"
)

// TestParallelMatchesSequential is the determinism contract of the Runner:
// a parallel sweep must render byte-identical tables and CSV to a
// sequential sweep of the same seed.
func TestParallelMatchesSequential(t *testing.T) {
	variants := []Variant{
		{Label: "daos S2", API: ior.APIDFS, Class: placement.S2},
		{Label: "daos SX", API: ior.APIDFS, Class: placement.SX},
	}
	cfg := tinyConfig("easy", variants)

	cfg.Parallelism = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if seq.CSV() != par.CSV() {
		t.Fatalf("CSV diverged:\n--- sequential ---\n%s--- parallel ---\n%s", seq.CSV(), par.CSV())
	}
	for _, write := range []bool{true, false} {
		if seq.Table(write) != par.Table(write) {
			t.Fatalf("table (write=%v) diverged:\n--- sequential ---\n%s--- parallel ---\n%s",
				write, seq.Table(write), par.Table(write))
		}
	}
}

// TestPointErrorsCollected verifies that a failing point no longer aborts
// the sweep: the rest of the grid completes, the failure lands in Point.Err,
// and Run's joined error names the failing series.
func TestPointErrorsCollected(t *testing.T) {
	variants := []Variant{
		{Label: "good", API: ior.APIDFS, Class: placement.S2},
		{Label: "broken", API: ior.API("BOGUS"), Class: placement.S2},
	}
	st, err := Run(tinyConfig("easy", variants))
	if err == nil {
		t.Fatal("sweep with a broken variant returned nil error")
	}
	if !strings.Contains(err.Error(), "broken") || !strings.Contains(err.Error(), "unknown API") {
		t.Fatalf("joined error does not name the failure: %v", err)
	}
	if st == nil {
		t.Fatal("study not returned alongside point errors")
	}
	good, bad := st.find("good"), st.find("broken")
	for _, pt := range good.Points {
		if pt.Err != "" || pt.WriteGiBs <= 0 {
			t.Fatalf("good series damaged by sibling failure: %+v", pt)
		}
	}
	for _, pt := range bad.Points {
		if pt.Err == "" {
			t.Fatalf("failed point missing Err: %+v", pt)
		}
		if pt.Nodes == 0 || pt.Ranks == 0 {
			t.Fatalf("failed point missing grid coordinates: %+v", pt)
		}
	}
}

// TestPointTimingsCollected verifies every completed point records its host
// wall-clock cost.
func TestPointTimingsCollected(t *testing.T) {
	st, err := Run(tinyConfig("easy", []Variant{{Label: "daos S2", API: ior.APIDFS, Class: placement.S2}}))
	if err != nil {
		t.Fatal(err)
	}
	if st.Elapsed <= 0 {
		t.Fatal("study missing batch wall-clock")
	}
	for _, pt := range st.Series[0].Points {
		if pt.Elapsed <= 0 {
			t.Fatalf("point missing wall-clock: %+v", pt)
		}
	}
}

// TestRunAllBatches verifies that independent studies submitted as one batch
// come back in order, fully populated.
func TestRunAllBatches(t *testing.T) {
	cfgA := tinyConfig("easy", []Variant{{Label: "daos S2", API: ior.APIDFS, Class: placement.S2}})
	cfgB := tinyConfig("hard", []Variant{{Label: "daos (DFS)", API: ior.APIDFS, Class: placement.SX}})
	studies, err := (&Runner{Parallelism: 4}).RunAll([]Config{cfgA, cfgB})
	if err != nil {
		t.Fatal(err)
	}
	if len(studies) != 2 {
		t.Fatalf("studies = %d", len(studies))
	}
	if studies[0].Config.Workload != "easy" || studies[1].Config.Workload != "hard" {
		t.Fatalf("batch order lost: %q then %q", studies[0].Config.Workload, studies[1].Config.Workload)
	}
	for _, st := range studies {
		for _, s := range st.Series {
			for _, pt := range s.Points {
				if pt.WriteGiBs <= 0 || pt.ReadGiBs <= 0 {
					t.Fatalf("unpopulated point in batch: %+v", pt)
				}
			}
		}
	}
}

// TestDecomposeGrid pins the decomposition contract both the in-process
// Runner and the studysvc wire protocol build on: jobs enumerate the grid
// in (study, variant, node) order, carry slot coordinates that biject onto
// the pre-allocated Points slots, derive their seeds with PointSeed from
// the defaulted config, and never mutate the caller's configs.
func TestDecomposeGrid(t *testing.T) {
	cfgA := tinyConfig("easy", []Variant{
		{Label: "daos S2", API: ior.APIDFS, Class: placement.S2},
		{Label: "daos SX", API: ior.APIDFS, Class: placement.SX},
	})
	cfgB := tinyConfig("hard", []Variant{{Label: "daos (DFS)", API: ior.APIDFS, Class: placement.SX}})
	in := []Config{cfgA, cfgB}

	studies, jobs := Decompose(in)

	if in[0].Seed != 0 || in[0].PPN != cfgA.PPN {
		t.Fatalf("Decompose mutated its input: %+v", in[0])
	}
	want := len(cfgA.Variants)*len(cfgA.Nodes) + len(cfgB.Variants)*len(cfgB.Nodes)
	if len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	seen := map[[3]int]bool{}
	for _, j := range jobs {
		slot := [3]int{j.Study, j.Series, j.Index}
		if seen[slot] {
			t.Fatalf("duplicate slot %v", slot)
		}
		seen[slot] = true
		st := studies[j.Study]
		if j.Variant.Label != st.Series[j.Series].Variant.Label {
			t.Fatalf("slot %v variant mismatch: %q vs %q", slot, j.Variant.Label, st.Series[j.Series].Variant.Label)
		}
		if j.Nodes != st.Config.Nodes[j.Index] {
			t.Fatalf("slot %v node mismatch: %d vs %d", slot, j.Nodes, st.Config.Nodes[j.Index])
		}
		if j.Cfg.Seed == 0 {
			t.Fatal("job carries an undefaulted config")
		}
		if j.Seed != PointSeed(j.Cfg.Seed, j.Series, j.Nodes) {
			t.Fatalf("slot %v seed not derived with PointSeed", slot)
		}
	}
	if len(seen) != want {
		t.Fatalf("slots covered = %d, want %d", len(seen), want)
	}
}

// TestArenaMatchesColdExecution is the cross-point reuse contract: a sweep
// on the Runner's per-worker kernel arenas must render byte-identical
// output to executing every job on a cold kernel. Two variants and two
// node counts give each arena several consecutive points to contaminate —
// any RNG, pool, or heap state leaking across Sim.Reset shows up here as
// a CSV diff.
func TestArenaMatchesColdExecution(t *testing.T) {
	variants := []Variant{
		{Label: "daos S2", API: ior.APIDFS, Class: placement.S2},
		{Label: "daos SX", API: ior.APIDFS, Class: placement.SX},
	}
	cfg := tinyConfig("easy", variants)
	cfg.Parallelism = 1 // one worker arena executes every point in sequence

	warm, err := (&Runner{Parallelism: 1}).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, jobs := Decompose([]Config{cfg})
	for _, j := range jobs {
		cold[j.Study].Series[j.Series].Points[j.Index] = j.Execute()
	}
	if warm.CSV() != cold[0].CSV() {
		t.Fatalf("arena sweep diverged from cold execution:\n--- arena ---\n%s--- cold ---\n%s", warm.CSV(), cold[0].CSV())
	}
}

// TestRunAllNoGoroutineLeak pins that the Runner's worker arenas drain
// before RunAll returns: repeated sweeps must not grow the process's
// goroutine count (each point spawns hundreds of simulated processes; a
// leak of even one per point fails this quickly).
func TestRunAllNoGoroutineLeak(t *testing.T) {
	cfg := tinyConfig("easy", []Variant{{Label: "daos S2", API: ior.APIDFS, Class: placement.S2}})
	r := &Runner{Parallelism: 2}
	// Warm-up run so lazily-created runtime goroutines settle into the
	// baseline.
	if _, err := r.RunAll([]Config{cfg}); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := r.RunAll([]Config{cfg}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked across RunAll: baseline %d, now %d\n%s",
			baseline, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestPointSeedDerivation pins the seed-derivation scheme: order-free,
// decorrelated, and collision-free across a realistic grid.
func TestPointSeedDerivation(t *testing.T) {
	seen := map[uint64]string{}
	for vi := 0; vi < 8; vi++ {
		for _, nodes := range []int{1, 2, 4, 8, 16} {
			s := PointSeed(2023, vi, nodes)
			if s == 0 {
				t.Fatal("zero seed would alias the RNG's remapped default")
			}
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s and (v%d,n%d)", prev, vi, nodes)
			}
			seen[s] = string(rune('a'+vi)) + "@" + string(rune('0'+nodes))
			if s != PointSeed(2023, vi, nodes) {
				t.Fatal("pointSeed not deterministic")
			}
		}
	}
	if PointSeed(1, 0, 1) == PointSeed(2, 0, 1) {
		t.Fatal("base seed does not decorrelate points")
	}
}

// TestShutdownWithDatagramInFlight pins a shutdown race: at seed 3701 the
// 1-node "daos SX" point of the easy grid ends with a pool-service datagram
// still on the wire when Testbed.Shutdown closes the fabric mailboxes. The
// datagram must be dropped and the point must complete.
func TestShutdownWithDatagramInFlight(t *testing.T) {
	_, jobs := Decompose([]Config{{Workload: "easy", Nodes: []int{1}, Variants: EasyVariants(), Seed: 3701}})
	j := jobs[2]
	if j.Variant.Label != "daos SX" || j.Nodes != 1 {
		t.Fatalf("job 2 is %q at %d nodes, want daos SX at 1", j.Variant.Label, j.Nodes)
	}
	pt := j.Execute()
	if pt.Err != "" {
		t.Fatalf("point failed: %s", pt.Err)
	}
	if pt.WriteGiBs <= 0 || pt.ReadGiBs <= 0 {
		t.Fatalf("point measured nothing: write %v, read %v GiB/s", pt.WriteGiBs, pt.ReadGiBs)
	}
}
