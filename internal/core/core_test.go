package core

import (
	"strings"
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/ior"
	"daosim/internal/placement"
)

// tinyConfig keeps unit-test studies fast: 2 server nodes, 1-node sweep,
// small geometry.
func tinyConfig(workload string, variants []Variant) Config {
	return Config{
		Workload:     workload,
		Nodes:        []int{1, 2},
		PPN:          2,
		BlockSize:    4 << 20,
		TransferSize: 1 << 20,
		Variants:     variants,
		Testbed:      cluster.Small(),
	}
}

func TestRunProducesAllPoints(t *testing.T) {
	variants := []Variant{
		{Label: "daos S2", API: ior.APIDFS, Class: placement.S2},
		{Label: "daos S1", API: ior.APIDFS, Class: placement.S1},
	}
	st, err := Run(tinyConfig("easy", variants))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Series) != 2 {
		t.Fatalf("series = %d", len(st.Series))
	}
	for _, s := range st.Series {
		if len(s.Points) != 2 {
			t.Fatalf("series %s points = %d", s.Variant.Label, len(s.Points))
		}
		for _, pt := range s.Points {
			if pt.WriteGiBs <= 0 || pt.ReadGiBs <= 0 {
				t.Fatalf("series %s: non-positive bandwidth %+v", s.Variant.Label, pt)
			}
			if pt.Ranks != pt.Nodes*2 {
				t.Fatalf("ranks = %d at %d nodes", pt.Ranks, pt.Nodes)
			}
		}
	}
}

func TestScalingMonotonicIsh(t *testing.T) {
	// Aggregate bandwidth at 2 nodes should exceed 1 node (unsaturated tiny
	// system).
	st, err := Run(tinyConfig("easy", []Variant{{Label: "daos S2", API: ior.APIDFS, Class: placement.S2}}))
	if err != nil {
		t.Fatal(err)
	}
	pts := st.Series[0].Points
	if pts[1].ReadGiBs <= pts[0].ReadGiBs {
		t.Fatalf("read did not scale: %v then %v", pts[0].ReadGiBs, pts[1].ReadGiBs)
	}
}

func TestTableAndCSV(t *testing.T) {
	st, err := Run(tinyConfig("hard", []Variant{{Label: "daos (DFS)", API: ior.APIDFS, Class: placement.SX}}))
	if err != nil {
		t.Fatal(err)
	}
	table := st.Table(true)
	if !strings.Contains(table, "daos (DFS)") || !strings.Contains(table, "write GiB/s") {
		t.Fatalf("table missing content:\n%s", table)
	}
	csv := st.CSV()
	if !strings.Contains(csv, "hard,daos (DFS),write,1,") {
		t.Fatalf("csv missing rows:\n%s", csv)
	}
	lines := strings.Count(csv, "\n")
	if lines != 1+2*2 { // header + 2 points x 2 phases
		t.Fatalf("csv lines = %d", lines)
	}
}

func TestDefaults(t *testing.T) {
	var c Config
	c.Defaults()
	if c.Workload != "easy" || c.PPN != 8 || len(c.Nodes) != 5 {
		t.Fatalf("defaults: %+v", c)
	}
	if c.Testbed.ServerNodes != 8 {
		t.Fatalf("testbed default: %+v", c.Testbed)
	}
}

func TestVariantSets(t *testing.T) {
	easy := EasyVariants()
	if len(easy) != 5 {
		t.Fatalf("easy variants = %d", len(easy))
	}
	hard := HardVariants()
	if len(hard) != 3 {
		t.Fatalf("hard variants = %d", len(hard))
	}
	for _, v := range hard {
		if v.Class != placement.SX {
			t.Fatalf("hard variant %s not SX", v.Label)
		}
	}
}

func TestClaimsMissingSeries(t *testing.T) {
	st := &Study{Config: Config{Nodes: []int{1}}}
	claims := st.CheckEasyClaims()
	if len(claims) != 1 || claims[0].Pass {
		t.Fatalf("claims on empty study = %+v", claims)
	}
	claims = st.CheckHardClaims()
	if len(claims) != 1 || claims[0].Pass {
		t.Fatalf("hard claims on empty study = %+v", claims)
	}
}

func TestRatioAndSpread(t *testing.T) {
	if ratio(2, 4) != 2 || ratio(4, 2) != 2 {
		t.Fatal("ratio not symmetric")
	}
	if ratio(1, 0) < 1e8 {
		t.Fatal("zero denominator not guarded")
	}
	if got := spread([]float64{1, 2, 4}); got != 4 {
		t.Fatalf("spread = %v", got)
	}
}

func TestClaimCheckersOnSyntheticData(t *testing.T) {
	// Build a study by hand that satisfies every easy claim, then flip one
	// number to make a specific claim fail.
	mk := func(sxLast float64) *Study {
		st := &Study{Config: Config{Nodes: []int{1, 16}}}
		add := func(label string, w1, r1, w16, r16 float64) {
			st.Series = append(st.Series, Series{
				Variant: Variant{Label: label},
				Points: []Point{
					{Nodes: 1, WriteGiBs: w1, ReadGiBs: r1},
					{Nodes: 16, WriteGiBs: w16, ReadGiBs: r16},
				},
			})
		}
		add("daos S1", 6, 8, 20, 100)
		add("daos S2", 9, 13, 27, 127)
		add("daos SX", 5, 7, sxLast, 80)
		add("mpiio (dfuse)", 8.5, 12, 25, 117)
		add("hdf5 (dfuse)", 1.5, 4, 15, 60)
		return st
	}
	good := mk(30)
	for _, c := range good.CheckEasyClaims() {
		if !c.Pass {
			t.Fatalf("synthetic good study failed claim %s: %s", c.Name, c.Detail)
		}
	}
	bad := mk(20) // SX no longer wins at 16 nodes
	found := false
	for _, c := range bad.CheckEasyClaims() {
		if c.Name == "fig1: SX wins writes at max contention" && !c.Pass {
			found = true
		}
	}
	if !found {
		t.Fatal("claim checker missed the SX regression")
	}
}

// TestPointRejectsInvalidIORBeforeTestbed pins that a point fails on an
// IOR configuration no run accepts before it builds a testbed: the job's
// testbed configuration is zero, on which cluster.New panics.
func TestPointRejectsInvalidIORBeforeTestbed(t *testing.T) {
	for _, tc := range []struct {
		workload string
		api      ior.API
	}{{"hard", ior.APIPosix}, {"hard", ior.APIDFS}, {"hard", ior.APIHDF5}, {"easy", ior.APIMPIIO}} {
		job := PointJob{
			Cfg:     Config{Workload: tc.workload, PPN: 1, BlockSize: 1 << 20, TransferSize: 1 << 20},
			Variant: Variant{Label: "x", API: tc.api, Class: placement.SX, Collective: true},
			Nodes:   1,
		}
		if pt := job.Execute(); !strings.Contains(pt.Err, "collective I/O requires MPI-I/O on a shared file") {
			t.Errorf("%s %s collective point: Err = %q", tc.workload, tc.api, pt.Err)
		}
	}
}
