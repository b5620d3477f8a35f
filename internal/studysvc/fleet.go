package studysvc

import (
	"context"
	"hash/fnv"
	"io"
	"math/rand"
	"sync/atomic"
	"time"
)

// Member is one named execution slot of the server's pool: local slots,
// remote peers, and test stubs all enter the scheduler this way. New builds
// Members from Config.Workers and Config.Remotes; Config.Members lets a
// caller (or a test) add arbitrary ones.
type Member struct {
	// Name identifies the slot in fleet stats (a remote's peer URL, or
	// "local/N").
	Name string
	// Worker executes the slot's jobs.
	Worker Worker
}

// member is a Member plus its scheduler-side state: availability and
// counters. All fields are atomics — the member's own pool goroutine writes
// them, stats readers read them concurrently.
type member struct {
	name string
	w    Worker
	rng  *rand.Rand // probe-jitter source; only the member's pool goroutine draws from it

	down         atomic.Bool
	points       atomic.Int64 // completed points (success or point-level failure)
	failures     atomic.Int64 // worker-level failures (job retried elsewhere)
	probes       atomic.Int64 // health probes issued while down
	readmissions atomic.Int64 // down->up transitions
}

// MemberStatus is one fleet member's externally-visible state, reported by
// /v1/statsz and printed by `studyctl stats` and daosd's shutdown summary.
type MemberStatus struct {
	Name string `json:"name"`
	// State is "up" (accepting jobs) or "down" (failed; being re-probed
	// with exponential backoff).
	State        string `json:"state"`
	Points       int64  `json:"points"`
	Failures     int64  `json:"failures,omitempty"`
	Probes       int64  `json:"probes,omitempty"`
	Readmissions int64  `json:"readmissions,omitempty"`
}

// status snapshots the member for stats reporting.
func (m *member) status() MemberStatus {
	state := "up"
	if m.down.Load() {
		state = "down"
	}
	return MemberStatus{
		Name:         m.name,
		State:        state,
		Points:       m.points.Load(),
		Failures:     m.failures.Load(),
		Probes:       m.probes.Load(),
		Readmissions: m.readmissions.Load(),
	}
}

// close releases the member's per-slot state if its worker holds any.
func (m *member) close() {
	if c, ok := m.w.(io.Closer); ok {
		c.Close()
	}
}

// probeTimeout bounds one health probe of a down member.
const probeTimeout = 5 * time.Second

// processSalt decorrelates probe jitter across coordinator processes: two
// daosd instances probing the same dead peer (so: identical member names,
// identical FNV seeds) must still spread their probes apart, or a fleet of
// coordinators hammers the recovering peer in lockstep.
var processSalt = rand.Uint64()

// probeRNG seeds a member's jitter source from its name mixed with the
// per-process salt, so distinct members of one server — and same-named
// members of distinct servers — draw independent jitter sequences.
func probeRNG(name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(int64(h.Sum64() ^ processSalt)))
}

// probeWait jitters one backoff interval into [backoff/2, backoff]: enough
// spread to break lockstep, while never waiting longer than the nominal
// backoff (readmission latency stays bounded by the un-jittered schedule).
func probeWait(rng *rand.Rand, backoff time.Duration) time.Duration {
	half := backoff / 2
	if half <= 0 {
		return backoff
	}
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// probeUntilUp holds a failed member out of the pool and re-probes it with
// jittered exponential backoff (Config.ProbeBase doubling up to
// Config.ProbeMax, each wait drawn from [backoff/2, backoff] by the member's
// seeded RNG) until the probe succeeds or the server shuts down. While it
// runs, the member's goroutine is not receiving from the job queue — being
// down IS not being scheduled. Returns false when shutdown interrupted the
// wait. Each probe's context derives from the server's lifetime, so
// Close cancels a probe already in flight instead of waiting out its
// timeout. Workers without a Probe are readmitted after a single backoff
// interval: with no way to check them, one quarantine period is the only
// gate.
func (s *Server) probeUntilUp(m *member) bool {
	m.down.Store(true)
	backoff := s.cfg.ProbeBase
	for {
		select {
		case <-s.ctx.Done():
			return false
		case <-time.After(probeWait(m.rng, backoff)):
		}
		prober, ok := m.w.(Prober)
		if !ok {
			break
		}
		m.probes.Add(1)
		ctx, cancel := context.WithTimeout(s.ctx, probeTimeout)
		err := prober.Probe(ctx)
		cancel()
		if err == nil {
			break
		}
		if s.ctx.Err() != nil {
			return false
		}
		if backoff *= 2; backoff > s.cfg.ProbeMax {
			backoff = s.cfg.ProbeMax
		}
	}
	m.readmissions.Add(1)
	m.down.Store(false)
	return true
}
