// Command daosbench measures daosim end to end, one workload per process,
// and prints every metric by name with its unit. Each run checks that the
// simulator's outputs are correct (golden CSVs at seed 0, determinism across
// repeats, verified reads, byte-identical warm batches) and exits non-zero
// when any check fails.
//
//	daosbench -workload paper-sweep -seed 0 -seconds 10        # one run, end-to-end metrics
//	daosbench -workload warm-durable -trace 1 -trace-out t.json  # per-layer metrics + Chrome trace
//	daosbench -seed 0                                           # every workload, each in a child process
//	daosbench -workload small-verify -repeat 10                 # median and quartiles over 10 seeds
//
// The last line of a single run's standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, measured by timing the benchmark's own calls into each
// layer's public functions (see ladder.go). BENCHMARK.json at the repository
// root lists both sets with their units and regression bounds.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/big"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opts are the inputs of one run.
type opts struct {
	seed    uint64
	seconds time.Duration
	// golden is the directory holding the committed Quick-scale CSVs that
	// seed-0 runs must reproduce.
	golden string
	// tiny shrinks small-verify's geometry, the set-up repetitions and the
	// ladder so tests can run every workload in seconds.
	tiny bool
}

// workers is the benchmark's concurrency: simulation workers and client
// connections both stay within the host's CPUs, at most two.
var workers = min(runtime.NumCPU(), 2)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+" (empty: every workload, each in a child process)")
		seed     seedValue
		seconds  = flag.Float64("seconds", 10, "how long each run measures")
		traced   = flag.Int("trace", 0, "1: report per-layer metrics instead of end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
		repeat   = flag.Int("repeat", 1, "runs per workload, with seeds seed..seed+N-1, each in a child process; prints medians and quartiles")
		golden   = flag.String("golden", "cmd/figures/testdata", "directory of the golden CSVs")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark spec holding the regression bounds -repeat checks spreads against")
	)
	flag.Var(&seed, "seed", "workload seed, any integer (taken modulo 2^64); 0 reproduces the committed golden CSVs")
	flag.Parse()
	o := opts{seed: uint64(seed), seconds: time.Duration(*seconds * float64(time.Second)), golden: *golden}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "daosbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *name == "" || *repeat > 1 {
		names := workloadNames()
		if *name != "" {
			names = []string{*name}
		}
		if *traceOut != "" && (len(names) > 1 || *repeat > 1) {
			fmt.Fprintln(os.Stderr, "daosbench: -trace-out needs one -workload and -repeat 1")
			os.Exit(2)
		}
		os.Exit(orchestrate(names, *repeat, o, *traced, *spec, os.Stdout))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "daosbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	res, err := run(w, o, *traced == 1, *traceOut, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daosbench: %s: %v\n", w.name, err)
	}
	line, _ := json.Marshal(res) // only float64 values and strings: cannot fail
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// seedValue is the -seed flag. It takes any decimal integer, negative or
// wider than 64 bits included, modulo 2^64 (two's complement for negative
// values), so every integer seed names a workload and 0 stays 0.
type seedValue uint64

var seedMask = new(big.Int).SetUint64(math.MaxUint64)

func (s *seedValue) String() string { return strconv.FormatUint(uint64(*s), 10) }

func (s *seedValue) Set(v string) error {
	n, ok := new(big.Int).SetString(v, 10)
	if !ok {
		return errors.New("not a decimal integer")
	}
	*s = seedValue(n.And(n, seedMask).Uint64())
	return nil
}

// usage is the host cost of one measured phase.
type usage struct {
	wall, cpu time.Duration
	alloc     uint64
}

// measure runs fn and reports its wall time, process CPU time and bytes
// allocated. It collects garbage first so set-up leftovers are not charged
// to the phase.
func measure(fn func() error) (usage, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	err := fn()
	u := usage{wall: time.Since(t0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&m1)
	u.alloc = m1.TotalAlloc - m0.TotalAlloc
	return u, err
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// run executes one workload: its set-up, then the closed loop for
// o.seconds. Untraced it reports the end-to-end metrics; traced it runs the
// loop untraced and traced for half the time each (their throughput ratio
// is the tracing overhead), then the per-layer ladder and service probes.
func run(w workload, o opts, traced bool, traceOut string, out io.Writer) (result, error) {
	fail := result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
	p, err := w.prepare(o)
	if err != nil {
		return fail, err
	}
	defer p.close()
	// Set-up leaves up to a gigabyte of freed heap (the warm workloads'
	// reference run and cold passes). Return it to the OS now, so the
	// runtime's background scavenger does not spend the measured time on it.
	debug.FreeOSMemory()

	if !traced {
		// The measurement is split into rounds, and the rate metrics report
		// the median round, so one stalled round does not move them.
		var t tally
		var wall time.Duration
		var pps, cpu, alloc []float64
		n := o.reps(5)
		for r := 0; r < n; r++ {
			var rt tally
			u, err := measure(func() error { return p.loop(time.Now().Add(o.seconds/time.Duration(n)), nil, &rt) })
			if err != nil {
				return fail, err
			}
			pts := float64(rt.attempted)
			pps = append(pps, pts/u.wall.Seconds())
			cpu = append(cpu, ms(u.cpu)/pts)
			alloc = append(alloc, float64(u.alloc)/pts)
			wall += u.wall
			t.merge(rt)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return fail, err
		}
		setup := make([]float64, len(p.setup))
		for i, d := range p.setup {
			setup[i] = d.Seconds()
		}
		res := t.result(map[string]metric{
			"setup_s":           {median(setup), "s"},
			"points_per_s":      {median(pps), "1/s"},
			"cpu_ms_per_point":  {median(cpu), "ms"},
			"alloc_b_per_point": {median(alloc), "B"},
			"peak_rss_mb":       {rss, "MB"},
			"batch_p50_ms":      {median(t.latency), "ms"},
			"batch_p90_ms":      {percentile(t.latency, 90), "ms"},
		})
		printMetrics(out, w.name, res)
		fmt.Fprintf(out, "# %s: %d points in %v (%d rounds) over %d batches (%s), %d set-up repetitions\n",
			w.name, t.attempted, wall.Round(time.Millisecond), n, len(t.latency), w.batch, len(p.setup))
		if len(t.first) > 0 {
			fmt.Fprintf(out, "# %s: first point p50 %.3f ms over %d batches\n", w.name, median(t.first), len(t.first))
		}
		return res, nil
	}

	var plain, traced2 tally
	half := o.seconds / 2
	u1, err := measure(func() error { return p.loop(time.Now().Add(half), nil, &plain) })
	if err != nil {
		return fail, err
	}
	tr := newTracer()
	u2, err := measure(func() error { return p.loop(time.Now().Add(half), tr, &traced2) })
	if err != nil {
		return fail, err
	}
	overhead := 100 * (float64(plain.attempted)/u1.wall.Seconds()/(float64(traced2.attempted)/u2.wall.Seconds()) - 1)
	fmt.Fprintf(out, "# %s spans (self = duration minus child spans)\n", w.name)
	tr.report(out)
	for _, k := range sortedKeys(traced2.byKind) {
		fmt.Fprintf(out, "%-28s %8d %12.3f\n", k+".host_ms", len(traced2.byKind[k]), median(traced2.byKind[k]))
	}
	fmt.Fprintf(out, "trace.overhead_pct %.2f (untraced %d points in %v, traced %d in %v)\n",
		overhead, plain.attempted, u1.wall.Round(time.Millisecond), traced2.attempted, u2.wall.Round(time.Millisecond))

	layers, err := ladder(o, tr, out)
	if err != nil {
		return fail, err
	}
	layers["trace.overhead_pct"] = metric{overhead, "%"}
	if traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return fail, err
		}
		fmt.Fprintf(out, "# trace written to %s\n", traceOut)
	}
	plain.merge(traced2)
	res := plain.result(layers)
	printMetrics(out, w.name, res)
	return res, nil
}

func printMetrics(out io.Writer, workload string, res result) {
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "%s %s %.6g %s\n", workload, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// spec is the part of BENCHMARK.json the orchestrator reads.
type spec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// orchestrate runs each named workload repeat times, each run in a child
// process of this binary (so peak RSS is per run) with seeds seed,
// seed+1, ..., echoing the children's output. With repeat > 1 it prints
// each metric's median and quartiles and flags a spread (interquartile
// range over median) wider than the metric's bound in the spec. It returns
// the exit status: non-zero when any run failed.
func orchestrate(names []string, repeat int, o opts, traced int, specPath string, out io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "daosbench:", err)
		return 1
	}
	bounds := map[string]float64{}
	if buf, err := os.ReadFile(specPath); err == nil {
		var s spec
		if err := json.Unmarshal(buf, &s); err != nil {
			fmt.Fprintf(os.Stderr, "daosbench: %s: %v\n", specPath, err)
			return 1
		}
		for _, m := range s.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < repeat; i++ {
			args := []string{
				"-workload", name,
				"-seed", strconv.FormatUint(o.seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64),
				"-trace", strconv.Itoa(traced),
				"-golden", o.golden,
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			out.Write(stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "daosbench: %s seed %d: %v\n", name, o.seed+uint64(i), err)
				status = 1
				continue
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "daosbench: %s: bad result line: %v\n", name, err)
				status = 1
				continue
			}
			for k, m := range res.Metrics {
				values[k] = append(values[k], m.Value)
				units[k] = m.Unit
			}
		}
		if repeat < 2 {
			continue
		}
		fmt.Fprintf(out, "\n%s over %d runs (seeds %d..%d)\n", name, repeat, o.seed, o.seed+uint64(repeat-1))
		fmt.Fprintf(out, "%-36s %14s %14s %14s %8s %8s\n", "metric", "median", "q1", "q3", "spread", "bound")
		for _, k := range sortedKeys(values) {
			vs := values[k]
			if len(vs) < 2 {
				continue
			}
			med := median(vs)
			q1, q3 := quartiles(vs)
			spread := (q3 - q1) / med
			line := fmt.Sprintf("%-36s %14.6g %14.6g %14.6g %7.2f%%", k+" ("+units[k]+")", med, q1, q3, 100*spread)
			if b, ok := bounds[k]; ok {
				line += fmt.Sprintf(" %7.1f%%", 100*b)
				if spread > b {
					line += "  SPREAD EXCEEDS BOUND"
				}
			}
			fmt.Fprintln(out, line)
		}
	}
	return status
}
