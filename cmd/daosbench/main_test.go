package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goldenDir = "../figures/testdata"

// testSpec reads the metric names BENCHMARK.json promises.
func testSpec(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	buf, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range s.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range s.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

func testOpts(golden string) opts {
	// Zero seconds still runs one unit of work per round; -short also
	// shrinks small-verify, the set-up repetitions and the ladder.
	return opts{seed: 0, golden: golden, tiny: testing.Short()}
}

// checkMetrics asserts that res carries exactly the names in want, each
// finite (and, where positive is required, above zero).
func checkMetrics(t *testing.T, res result, want map[string]bool, positive func(string) bool) {
	t.Helper()
	for name := range want {
		m, ok := res.Metrics[name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v, not finite", name, m.Value)
		case positive(name) && m.Value <= 0:
			t.Errorf("metric %s = %v, want > 0", name, m.Value)
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
		}
	}
}

func TestEveryWorkloadEmitsEveryEndToEndMetric(t *testing.T) {
	endToEnd, _ := testSpec(t)
	for _, w := range workloadList {
		t.Run(w.name, func(t *testing.T) {
			res, err := run(w, testOpts(goldenDir), false, "", io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("result = correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
			}
			checkMetrics(t, res, endToEnd, func(string) bool { return true })
		})
	}
}

func TestTracedRunEmitsEveryPerLayerMetric(t *testing.T) {
	_, perLayer := testSpec(t)
	w, _ := findWorkload("warm-ephemeral")
	out := filepath.Join(t.TempDir(), "trace.json")
	res, err := run(w, testOpts(goldenDir), true, out, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d", res.Failed, res.Attempted)
	}
	checkMetrics(t, res, perLayer, func(name string) bool { return name != "trace.overhead_pct" })

	buf, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 || e.Args["id"] == nil {
			t.Fatalf("malformed trace event %+v", e)
		}
		names[e.Name] = true
	}
	for _, want := range []string{"studysvc.Client.Submit", "first point", "hdf5.write.2m", "studysvc.submit"} {
		if !names[want] {
			t.Errorf("trace has no %q span", want)
		}
	}
}

// corruptGolden copies the golden CSVs to a temporary directory and changes
// one digit of figure1_quick.csv.
func corruptGolden(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"figure1_quick.csv", "figure2_quick.csv", "fault_quick.csv"} {
		buf, err := os.ReadFile(filepath.Join(goldenDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if f == "figure1_quick.csv" {
			i := strings.IndexAny(string(buf), "123456789")
			buf[i] = '0'
		}
		if err := os.WriteFile(filepath.Join(dir, f), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestCorruptGoldenFailsTheRun(t *testing.T) {
	dir := corruptGolden(t)
	for _, name := range []string{"paper-sweep", "warm-ephemeral"} {
		t.Run(name, func(t *testing.T) {
			w, _ := findWorkload(name)
			res, err := run(w, testOpts(dir), false, "", io.Discard)
			if err == nil && res.Correct {
				t.Fatal("run against a corrupted golden CSV reported correct")
			}
			if res.Failed == 0 {
				t.Fatal("run against a corrupted golden CSV counted no failure")
			}
		})
	}
}

func TestSeedTakesAnyInteger(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"0", 0},
		{"7", 7},
		{"+7", 7},
		{"-1", math.MaxUint64},
		{"-9223372036854775808", 1 << 63},
		{"18446744073709551615", math.MaxUint64},
		{"18446744073709551623", 7},
	} {
		var s seedValue
		if err := s.Set(tc.in); err != nil || uint64(s) != tc.want {
			t.Errorf("seed %q = %d, %v; want %d", tc.in, uint64(s), err, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "1.5", "0x10"} {
		var s seedValue
		if err := s.Set(bad); err == nil {
			t.Errorf("seed %q accepted", bad)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(xs, n=4) in Python.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 4, 2, 8}, 1.5, 9},
		{[]float64{1, 2}, 0.75, 2.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}
