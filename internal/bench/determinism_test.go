package bench

import (
	"fmt"
	"strings"
	"testing"

	"daosim/internal/cache"
)

// The determinism harness pins the contract that makes the point cache safe
// at all: every canned experiment's full rendered output (tables + CSV
// where the experiment is a Study) must be byte-identical between a cold
// run and warm-cache reruns, sequential and parallel alike. Caching is only
// safe if this is tested, not assumed — a key that misses an
// output-affecting field would fail here by serving a stale point.

// experiments lists every internal/bench experiment with a renderer that
// captures its complete output.
var experiments = []struct {
	name string
	run  func(Options) (string, error)
}{
	{"Figure1", func(o Options) (string, error) {
		st, err := Figure1(o)
		if err != nil {
			return "", err
		}
		return Render("Figure 1", st) + st.CSV(), nil
	}},
	{"Figure2", func(o Options) (string, error) {
		st, err := Figure2(o)
		if err != nil {
			return "", err
		}
		return Render("Figure 2", st) + st.CSV(), nil
	}},
	{"AblationObjectClass", func(o Options) (string, error) {
		st, err := AblationObjectClass(o)
		if err != nil {
			return "", err
		}
		return Render("A1", st) + st.CSV(), nil
	}},
	{"AblationTransferSize", func(o Options) (string, error) {
		pts, err := AblationTransferSize(o)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", pts), nil
	}},
	{"AblationFuseOverhead", func(o Options) (string, error) {
		st, err := AblationFuseOverhead(o)
		if err != nil {
			return "", err
		}
		return Render("A3", st) + st.CSV(), nil
	}},
	{"AblationCollective", func(o Options) (string, error) {
		st, err := AblationCollective(o)
		if err != nil {
			return "", err
		}
		return Render("A4", st) + st.CSV(), nil
	}},
	{"FutureNativeArray", func(o Options) (string, error) {
		pts, err := FutureNativeArray(o)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%+v", pts), nil
	}},
	{"FaultGrid", func(o Options) (string, error) {
		fss, err := FaultGrid(o)
		if err != nil {
			return "", err
		}
		return RenderFaultGrid(fss) + FaultCSV(fss), nil
	}},
}

// TestWarmCacheDeterminism runs every experiment cold, then three more
// times against one shared cache — a parallel populating pass followed by
// warm passes at -parallel 1 and -parallel 4 — and requires byte-identical
// output each time. It also checks the ledger: every store was a miss, and
// the two warm passes served every grid point from the cache.
// In -short mode (the 1-core CI race job) only the cheapest experiment
// runs: the full 7-experiment matrix re-simulates every figure and
// ablation twice, which blows the default go-test timeout under the ~15x
// race-detector slowdown on a single core. The full matrix still runs in
// every plain `go test ./...` (tier-1).
func TestWarmCacheDeterminism(t *testing.T) {
	matrix := experiments
	if testing.Short() {
		matrix = matrix[3:4] // AblationTransferSize: two single-point studies
		if matrix[0].name != "AblationTransferSize" {
			t.Fatalf("short-mode experiment pick drifted: %s", matrix[0].name)
		}
	}
	for _, ex := range matrix {
		t.Run(ex.name, func(t *testing.T) {
			cold, err := ex.run(Options{Scale: Quick, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			c, err := cache.New(cache.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, pass := range []struct {
				label    string
				parallel int
			}{
				{"populate/parallel=4", 4},
				{"warm/parallel=1", 1},
				{"warm/parallel=4", 4},
			} {
				got, err := ex.run(Options{Scale: Quick, Parallelism: pass.parallel, Cache: c})
				if err != nil {
					t.Fatalf("%s: %v", pass.label, err)
				}
				if got != cold {
					t.Fatalf("%s output diverged from cold run:\n--- cold ---\n%s\n--- %s ---\n%s",
						pass.label, cold, pass.label, got)
				}
			}
			st := c.Stats()
			if st.Stores == 0 {
				t.Fatal("experiment cached nothing")
			}
			// The populating pass misses exactly once per grid point; the
			// two warm passes replay each of those points twice. (Points
			// that bypass the runner grid — the native-array half of
			// FutureNativeArray — are re-simulated deterministically and
			// never touch the ledger.)
			if st.Misses != st.Stores {
				t.Fatalf("missed without storing (a failed point was cached?): %+v", st)
			}
			if st.Hits != 2*st.Stores {
				t.Fatalf("warm passes did not replay every grid point: %+v", st)
			}
		})
	}
}

// TestWarmCacheFigure1AllHits is the acceptance criterion in miniature: a
// warm-cache rerun of the Figure 1 sweep must skip all simulation (100% hit
// rate) and emit byte-identical CSV.
func TestWarmCacheFigure1AllHits(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure-1-sized determinism re-run; covered at full scale by the plain test job")
	}
	c, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coldSt, err := Figure1(Options{Scale: Quick, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	warmSt, err := Figure1(Options{Scale: Quick, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if warmSt.CSV() != coldSt.CSV() {
		t.Fatalf("warm CSV diverged:\n--- cold ---\n%s--- warm ---\n%s", coldSt.CSV(), warmSt.CSV())
	}
	after := c.Stats()
	points := int64(len(coldSt.Series) * len(coldSt.Config.Nodes))
	if after.Misses != before.Misses || after.Hits-before.Hits != points {
		t.Fatalf("warm rerun simulated: %d new misses, %d/%d hits",
			after.Misses-before.Misses, after.Hits-before.Hits, points)
	}
	// The warm pass alone is a 100%-hit window; its Stats snapshot must
	// report it that way (the marker cmd/figures prints and TestBinaries
	// checks).
	warmOnly := cache.Stats{Hits: after.Hits - before.Hits, MemHits: after.MemHits - before.MemHits}
	if !strings.Contains(warmOnly.String(), "100.0% hits") {
		t.Fatalf("warm pass not reported as 100%% hits: %s", warmOnly)
	}
}

// TestFaultGridDiskTierWarmStart proves the degraded-mode outputs survive
// the disk tier: a fresh Cache over the same directory replays the fault
// grid — including DegradedGiBs, RecoverySec, and MapTransitions, which
// only exist in the v2 disk record — byte-identically from disk alone.
func TestFaultGridDiskTierWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-grid-sized determinism re-run; covered at full scale by the plain test job")
	}
	dir := t.TempDir()
	c1, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fss, err := FaultGrid(Options{Scale: Quick, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}
	cold := FaultCSV(fss)
	if !strings.Contains(cold, ",8\n") && !strings.Contains(cold, ",16\n") {
		t.Fatalf("cold fault grid shows no map transitions:\n%s", cold)
	}

	c2, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	fss2, err := FaultGrid(Options{Scale: Quick, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if warm := FaultCSV(fss2); warm != cold {
		t.Fatalf("disk-tier warm start diverged:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	st := c2.Stats()
	if st.Misses != 0 || st.DiskHits != st.Hits || st.Hits == 0 {
		t.Fatalf("warm start did not come from disk: %+v", st)
	}
}

// TestDiskTierWarmStart proves persistence: a second process (modeled as a
// fresh Cache over the same directory) replays Figure 1 byte-identically
// from disk alone.
func TestDiskTierWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("Figure-1-sized determinism re-run; covered at full scale by the plain test job")
	}
	dir := t.TempDir()
	c1, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Figure1(Options{Scale: Quick, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}

	c2, err := cache.New(cache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Figure1(Options{Scale: Quick, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.CSV() != cold.CSV() || warm.Table(true) != cold.Table(true) || warm.Table(false) != cold.Table(false) {
		t.Fatal("disk-tier warm start diverged from cold run")
	}
	st := c2.Stats()
	if st.Misses != 0 || st.DiskHits != st.Hits || st.Hits == 0 {
		t.Fatalf("warm start did not come from disk: %+v", st)
	}
}
