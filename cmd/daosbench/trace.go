package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// point or batch share id; parent indexes the enclosing span (-1 for a
// root), so self time is a span's duration minus its children's.
type span struct {
	name       string
	id         string
	parent     int
	tid        int
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced measurement runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its handle for end and for children.
func (t *tracer) begin(name, id string, parent, tid int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, tid: tid, start: time.Now()})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

// record adds a finished span whose duration was measured elsewhere.
func (t *tracer) record(name, id string, parent, tid int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, tid: tid, start: start, end: end})
	t.mu.Unlock()
}

// selfTimes returns every span's duration minus the time its direct
// children cover (children of one span never overlap: each is a call the
// parent made in sequence).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end.Sub(s.start)
		if s.parent >= 0 {
			self[s.parent] -= s.end.Sub(s.start)
		}
	}
	return self
}

// report prints, per span name, the count and the median duration and self
// time in milliseconds.
func (t *tracer) report(w io.Writer) {
	self := t.selfTimes()
	dur := map[string][]float64{}
	own := map[string][]float64{}
	for i, s := range t.spans {
		dur[s.name] = append(dur[s.name], ms(s.end.Sub(s.start)))
		own[s.name] = append(own[s.name], ms(self[i]))
	}
	names := make([]string, 0, len(dur))
	for n := range dur {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "p50_ms", "self_p50_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, len(dur[n]), median(dur[n]), median(own[n]))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events), viewable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts:   float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.id, "parent": s.parent, "index": i},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, buf, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for no values.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them. It needs
// at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
