package bench

import (
	"strings"
	"testing"

	"daosim/internal/core"
)

// The bench tests exercise the canned experiment wiring at Quick scale so
// CI validates every figure/ablation path end to end. Full-scale sweeps run
// through cmd/figures.

// skipGridInShort guards experiments that simulate a whole figure-sized
// grid: under the race detector's ~15x slowdown on a 1-core runner the
// full set blows the default go-test timeout, so the -short race job runs
// one representative grid (Figure 2) plus the cheap ablations and leaves
// the rest to the plain test job.
func skipGridInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("figure-sized grid; covered by the plain (non -short) test job")
	}
}

func TestFigure1Quick(t *testing.T) {
	skipGridInShort(t)
	st, err := Figure1(At(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Series) != 5 {
		t.Fatalf("series = %d", len(st.Series))
	}
	out := Render("Figure 1", st)
	if !strings.Contains(out, "(a) Read") || !strings.Contains(out, "(b) Write") {
		t.Fatalf("render missing panels:\n%s", out)
	}
}

// TestPaperClaimsFull gates the paper's 8 claims on the Full Figure 1 + 2
// grids: 16 nodes is where write contention develops, so "SX wins writes
// at max contention" fails at Quick scale by design.
func TestPaperClaimsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("Full-scale Figure 1 + 2 grids; covered by the plain (non -short) test job")
	}
	o := Options{Scale: Full, Parallelism: 1}
	easy, err := Figure1(o)
	if err != nil {
		t.Fatal(err)
	}
	hard, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	claims := append(easy.CheckEasyClaims(), hard.CheckHardClaims()...)
	claims = append(claims, core.CheckCrossClaims(easy, hard)...)
	if len(claims) != 8 {
		t.Errorf("%d claims checked, want 8:\n%s", len(claims), RenderClaims(claims))
	}
	for _, c := range claims {
		if !c.Pass {
			t.Errorf("claim %q failed: %s", c.Name, c.Detail)
		}
	}
}

func TestFigure2Quick(t *testing.T) {
	st, err := Figure2(At(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Series) != 3 {
		t.Fatalf("series = %d", len(st.Series))
	}
	claims := st.CheckHardClaims()
	out := RenderClaims(claims)
	if !strings.Contains(out, "fig2:") {
		t.Fatalf("claims render:\n%s", out)
	}
}

// TestFaultGridQuick runs the fault experiment end to end and checks the
// degraded-mode outputs are real: every point saw its pool map transition
// (the plan always fires inside the measured window), at least one point
// measured nonzero degraded bandwidth, and every point has a positive
// recovery time.
func TestFaultGridQuick(t *testing.T) {
	skipGridInShort(t)
	fss, err := FaultGrid(At(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(fss) != len(FaultCases()) {
		t.Fatalf("cases = %d, want %d", len(fss), len(FaultCases()))
	}
	sawDegraded := false
	for _, fs := range fss {
		if fs.Study == nil {
			t.Fatalf("case %s: no study", fs.Case.Label)
		}
		for _, s := range fs.Study.Series {
			for _, pt := range s.Points {
				if pt.MapTransitions == 0 {
					t.Errorf("case %s %s nodes=%d: fault never fired in the window", fs.Case.Label, s.Variant.Label, pt.Nodes)
				}
				if pt.RecoverySec <= 0 {
					t.Errorf("case %s %s nodes=%d: recovery = %v", fs.Case.Label, s.Variant.Label, pt.Nodes, pt.RecoverySec)
				}
				if pt.DegradedGiBs > 0 {
					sawDegraded = true
				}
				if pt.WriteGiBs <= 0 || pt.ReadGiBs <= 0 {
					t.Errorf("case %s %s nodes=%d: workload did not survive: %+v", fs.Case.Label, s.Variant.Label, pt.Nodes, pt)
				}
			}
		}
	}
	if !sawDegraded {
		t.Error("no point measured nonzero degraded bandwidth")
	}
	csv := FaultCSV(fss)
	if !strings.HasPrefix(csv, "workload,series,case,kill_at_ms,") {
		t.Fatalf("fault CSV header:\n%s", csv)
	}
	out := RenderFaultGrid(fss)
	if !strings.Contains(out, "kill engine 3") {
		t.Fatalf("fault render:\n%s", out)
	}
}

func TestAblationObjectClassQuick(t *testing.T) {
	skipGridInShort(t)
	st, err := AblationObjectClass(At(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Series) != 5 {
		t.Fatalf("classes = %d", len(st.Series))
	}
	// Every class must produce positive bandwidth at the peak point.
	for _, s := range st.Series {
		if s.Points[0].WriteGiBs <= 0 {
			t.Fatalf("class %s produced no bandwidth", s.Variant.Label)
		}
	}
}

func TestAblationTransferSizeQuick(t *testing.T) {
	pts, err := AblationTransferSize(At(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	// Larger transfers amortize per-op costs: bandwidth must not collapse.
	if pts[1].WriteGiBs <= pts[0].WriteGiBs*0.5 {
		t.Fatalf("larger transfer slower: %+v", pts)
	}
}

func TestAblationFuseOverheadQuick(t *testing.T) {
	skipGridInShort(t)
	st, err := AblationFuseOverhead(At(Quick))
	if err != nil {
		t.Fatal(err)
	}
	dfs := st.Series[0]
	posix := st.Series[1]
	for i := range dfs.Points {
		if posix.Points[i].WriteGiBs > dfs.Points[i].WriteGiBs*1.15 {
			t.Fatalf("posix-over-dfuse beats dfs direct at %d nodes", dfs.Points[i].Nodes)
		}
	}
}

func TestAblationCollectiveQuick(t *testing.T) {
	skipGridInShort(t)
	st, err := AblationCollective(At(Quick))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Series) != 2 {
		t.Fatalf("series = %d", len(st.Series))
	}
	for _, s := range st.Series {
		for _, pt := range s.Points {
			if pt.WriteGiBs <= 0 || pt.ReadGiBs <= 0 {
				t.Fatalf("%s produced no bandwidth", s.Variant.Label)
			}
		}
	}
}

func TestFutureNativeArrayQuick(t *testing.T) {
	skipGridInShort(t)
	pts, err := FutureNativeArray(At(Quick))
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		if pt.NativeWriteGiBs <= 0 || pt.DFSWriteGiBs <= 0 {
			t.Fatalf("missing bandwidth: %+v", pt)
		}
		// The native array path skips the DFS namespace; it must not be
		// slower than DFS by more than a whisker.
		if pt.NativeWriteGiBs < pt.DFSWriteGiBs*0.8 {
			t.Fatalf("native array much slower than DFS: %+v", pt)
		}
	}
}

func TestNodesForScales(t *testing.T) {
	if len(nodesFor(Full)) != 5 || len(nodesFor(Quick)) != 2 {
		t.Fatal("scale sweeps wrong")
	}
}
