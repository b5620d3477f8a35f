package studysvc

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"

	"daosim/internal/core"
)

// This file is the durable half of the scheduler: batch submissions
// that survive a daosd crash and streams that re-attach mid-flight.
// It engages only when Config.Store is set, and it adds no second
// delivery path: a durable batch is a batchState like any other (see
// batch.go), distinguished only by being registered and by its lifetime.
//
// A durable batch's lifecycle: handleSubmit opens a registered batch,
// which journals the submission and schedules its jobs under the
// server's lifetime context (not the request's — the client may come
// and go). deliver stages each result past the end of the delivery log,
// and commit journals everything staged with one append and one fsync
// before it publishes those results to the log, so journal order is
// delivery order. enqueue gathers a batch's cache hits into one commit;
// a simulated point commits as it lands. Any number of stream
// attachments (the original POST, or GET resume legs) serve the log
// from an offset and then follow live deliveries. When the trailer has
// been delivered to some client, the batch retires: the journal retires
// it (truncating itself to its header when no other batch is live) and
// the state is dropped. Close cancels the lifetime context before
// anything else, so a shutdown journals nothing that lands afterwards —
// in particular not the cancellation placeholders of the points it
// interrupted. A batch interrupted by a crash or shutdown is rebuilt
// from the journal on startup: completed points pre-populate the
// delivery log, the rest re-enqueue.

// DurabilityStats is the /v1/statsz durability block of a daosd running
// with a job store.
type DurabilityStats struct {
	// JournaledBatches counts submissions journaled since this process
	// started.
	JournaledBatches int64 `json:"journaled_batches"`
	// LiveBatches is the number of batches currently resident (accepted
	// or recovered, trailer not yet delivered).
	LiveBatches int `json:"live_batches"`
	// RecoveredBatches, ReplayedPoints, and ReenqueuedPoints describe
	// the last startup recovery: how many unfinished batches the journal
	// held, how many of their points were served from the store, and how
	// many had to be re-enqueued for execution.
	RecoveredBatches int `json:"recovered_batches"`
	ReplayedPoints   int `json:"replayed_points"`
	ReenqueuedPoints int `json:"reenqueued_points"`
	// ResumedStreams counts GET resume attachments served.
	ResumedStreams int64 `json:"resumed_streams"`
	// JournalSyncs counts the fsyncs the job store has issued since it
	// was opened (jobstore.Store.Syncs).
	JournalSyncs int64 `json:"journal_syncs"`
	// JournalErrors counts appends and retirements the store refused
	// (disk trouble; after its first failed write or fsync the store
	// refuses them all). Affected points lose durability, not correctness.
	JournalErrors int64 `json:"journal_errors,omitempty"`
}

// newBatchID generates a server-side batch id when the client did not
// pick one.
func newBatchID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("batch-%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// lookupBatch returns the live batchState for id, if any.
func (s *Server) lookupBatch(id string) *batchState {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	return s.batches[id]
}

// retireBatch drops a fully-delivered registered batch: the journal
// retires it and the state leaves the live table. It is a no-op for an
// unregistered batch (never in the table) and for every attachment after
// the first. The journal retires the batch under batchMu, before the id
// leaves the table, so a re-POST of the same id journals its fresh batch
// record only afterwards, where no truncation can reach it.
func (s *Server) retireBatch(b *batchState) {
	s.batchMu.Lock()
	defer s.batchMu.Unlock()
	if s.batches[b.id] != b {
		return
	}
	if err := s.store.BatchDone(b.id); err != nil {
		s.journalErrs.Add(1)
	}
	delete(s.batches, b.id)
}

// recoverBatches rebuilds the store's unfinished batches at startup:
// completed points pre-populate each delivery log (re-sequenced in their
// original delivery order), and only the points that never finished are
// re-enqueued. Runs before the server accepts connections, but the
// re-enqueued work executes on the normal pool machinery.
func (s *Server) recoverBatches() {
	for _, rb := range s.store.Recovered() {
		_, jobs := core.Decompose(rb.Configs)
		b := s.newBatch(s.ctx, rb.ID, jobs, len(rb.Configs))
		for _, pr := range rb.Points {
			if pr.Pos < 0 || pr.Pos >= len(jobs) || b.done[pr.Pos] {
				continue
			}
			b.done[pr.Pos] = true
			sp := toWire(jobs[pr.Pos], pr.Point, pr.CacheHit)
			sp.Coalesced = pr.Coalesced
			b.pushLocked(sp) // b is not shared yet
		}
		s.batchMu.Lock()
		s.batches[rb.ID] = b
		s.batchMu.Unlock()
		s.recovery.RecoveredBatches++
		s.recovery.ReplayedPoints += len(b.log)
		s.recovery.ReenqueuedPoints += len(jobs) - len(b.log)
		go s.enqueue(b, slices.Clone(b.done))
	}
}

// handleResume implements the GET resume leg: re-attach to a live batch
// from a seq offset.
func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "studysvc: server draining", http.StatusServiceUnavailable)
		return
	}
	id := r.PathValue("batch")
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("studysvc: bad from offset %q", q), http.StatusBadRequest)
			return
		}
		from = n
	}
	b := s.lookupBatch(id)
	if b == nil {
		http.Error(w, fmt.Sprintf("studysvc: unknown batch %q", id), http.StatusNotFound)
		return
	}
	s.resumed.Add(1)
	s.serveBatch(w, r, b, from)
}

// durabilityStats snapshots the durability counters for /v1/statsz.
func (s *Server) durabilityStats() *DurabilityStats {
	if s.store == nil {
		return nil
	}
	s.batchMu.Lock()
	live := len(s.batches)
	s.batchMu.Unlock()
	d := s.recovery // static after New
	d.JournaledBatches = s.journaled.Load()
	d.LiveBatches = live
	d.ResumedStreams = s.resumed.Load()
	d.JournalSyncs = s.store.Syncs()
	d.JournalErrors = s.journalErrs.Load()
	return &d
}
