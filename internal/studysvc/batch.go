package studysvc

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"daosim/internal/core"
	"daosim/internal/jobstore"
)

// batchState is one submission resident in memory: its jobs, the context
// they run under, and the delivery log every stream of the batch reads.
// Every submission form — PathSubmit with or without a job store, the
// PathSubmitPoints leg, and recovered batches — is a batchState, and
// serveBatch is the only code that writes its point lines.
type batchState struct {
	// id names a registered batch: journaled, listed in Server.batches
	// for resume, and retired once its trailer is delivered. It is empty
	// for unregistered batches, whose stream header carries no batch id.
	id      string
	jobs    []core.PointJob
	studies int
	// ctx is the batch's lifetime: the request's for an unregistered
	// batch, the server's for a registered one. Results that land after
	// it ends are dropped.
	ctx     context.Context
	start   time.Time
	retried atomic.Int64

	// mu guards everything below and is never held across a journal
	// append. The log is allocated at len(jobs) and never reallocates, so
	// entries below len(log) never change and attachments read them
	// without copying; log[i].Seq == i+1.
	mu  sync.Mutex
	log []StreamPoint
	// staged counts a registered batch's results that landed but are not
	// journaled yet. They wait in the log's spare capacity, in
	// log[len(log):len(log)+staged], each with its job position in Seq
	// until commit publishes it; attachments never read past len(log).
	staged int
	// committing is set while a commit journals and publishes, so one
	// runs per batch at a time.
	committing bool
	// synced is set once the batch record's sync has ended (or failed:
	// the batch then runs without durability); streams hold the header,
	// which carries the batch id, until then. Unregistered and recovered
	// batches start synced.
	synced bool
	done   []bool  // positions delivered, staged or recovered
	ledger Trailer // the running counters; Done once every job has landed
	wakers map[chan struct{}]struct{}
}

// newBatch creates the state for jobs running under ctx. A non-empty id
// makes it a registered batch; the caller registers and journals it.
func (s *Server) newBatch(ctx context.Context, id string, jobs []core.PointJob, studies int) *batchState {
	b := &batchState{
		id:      id,
		jobs:    jobs,
		studies: studies,
		ctx:     ctx,
		start:   time.Now(),
		done:    make([]bool, len(jobs)),
		log:     make([]StreamPoint, 0, len(jobs)),
		ledger:  Trailer{CacheEnabled: s.cache != nil},
		wakers:  make(map[chan struct{}]struct{}),
		synced:  id == "",
	}
	b.sealLocked() // a zero-point batch is complete on arrival
	return b
}

// openBatch returns the batch for id, creating and scheduling it under
// ctx on first sight. A non-empty id registers the batch: it is journaled
// and resumable, and the second return is false when id was already live
// — a re-POST that should re-attach, not re-schedule. An empty id opens an
// unregistered batch, which lives exactly as long as ctx.
func (s *Server) openBatch(ctx context.Context, id string, cfgs []core.Config) (*batchState, bool) {
	_, jobs := core.Decompose(cfgs)
	b := s.newBatch(ctx, id, jobs, len(cfgs))
	if id != "" {
		s.batchMu.Lock()
		if live, ok := s.batches[id]; ok {
			s.batchMu.Unlock()
			return live, false
		}
		s.batches[id] = b
		s.batchMu.Unlock()
		if err := s.store.AppendBatch(id, cfgs); err != nil {
			// The batch still runs; it just will not survive a crash.
			s.journalErrs.Add(1)
		}
		s.journaled.Add(1)
	}
	go s.enqueue(b, nil)
	return b, true
}

// pushLocked appends sp to the log as the next seq and counts it in the
// ledger. Callers hold b.mu, or own b exclusively.
func (b *batchState) pushLocked(sp StreamPoint) {
	sp.Seq = len(b.log) + 1
	b.log = append(b.log, sp)
	if sp.CacheHit {
		b.ledger.CacheHits++
	} else {
		b.ledger.CacheMisses++
	}
	if sp.Coalesced {
		b.ledger.Coalesced++
	}
	if sp.Err != "" {
		b.ledger.Errors++
	}
	b.sealLocked()
}

// sealLocked completes the trailer once every job has landed.
func (b *batchState) sealLocked() {
	if len(b.log) < len(b.jobs) {
		return
	}
	b.ledger.Done = true
	b.ledger.Points = len(b.jobs)
	b.ledger.Retries = int(b.retried.Load())
	b.ledger.ElapsedNS = int64(time.Since(b.start))
}

// deliver records the result for position pos of b. A result that lands
// after b's context ended is the cancellation echoing back: nobody streams
// it, and the journal must not record it (a restarted server re-runs the
// point instead). Duplicates are dropped too, which keeps the log within
// its allocation. An unregistered batch publishes the result at once. A
// registered batch stages it for commit, which journals it before it
// becomes visible, so a point a client saw is always a point a restarted
// server still has.
func (b *batchState) deliver(pos int, sp StreamPoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ctx.Err() != nil || b.done[pos] {
		return
	}
	b.done[pos] = true
	if b.id == "" {
		b.pushLocked(sp)
		b.wakeLocked()
		return
	}
	sp.Seq = pos
	b.log[:cap(b.log)][len(b.log)+b.staged] = sp
	b.staged++
}

// commit journals everything staged in b with one AppendPoint, then
// publishes it to the log and wakes the attachments, and repeats until
// nothing is staged. Its first AppendPoint also syncs b's batch record;
// with nothing staged, a commit of a batch whose record is not synced
// yet syncs the store instead. A call that finds a commit running
// returns at once: the running one picks up what was staged meanwhile,
// so journal order stays log order. Once b's context has ended, commit
// journals and publishes nothing more. Callers commit after their
// deliveries, and before anything that may block for long.
func (s *Server) commit(b *batchState) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.committing {
		return
	}
	b.committing = true
	for (b.staged > 0 || !b.synced) && b.ctx.Err() == nil {
		group := b.log[len(b.log) : len(b.log)+b.staged]
		b.mu.Unlock()
		var err error
		if len(group) == 0 {
			err = s.store.Sync()
		} else {
			recs := make([]jobstore.PointRecord, len(group))
			for i, sp := range group {
				recs[i] = jobstore.PointRecord{Pos: sp.Seq, Point: sp.toPoint(), CacheHit: sp.CacheHit, Coalesced: sp.Coalesced}
			}
			err = s.store.AppendPoint(b.id, recs...)
		}
		b.mu.Lock()
		if err != nil {
			// The points still stream; they just will not survive a crash.
			s.journalErrs.Add(1)
		}
		b.synced = true
		for _, sp := range group {
			b.pushLocked(sp)
		}
		b.staged -= len(group)
		b.wakeLocked()
	}
	b.committing = false
}

// wakeLocked tells every attachment the log grew.
func (b *batchState) wakeLocked() {
	for wake := range b.wakers {
		select {
		case wake <- struct{}{}:
		default: // already pending
		}
	}
}

// serveBatch streams b's log from offset from (a seq: the client has
// everything up to and including it) and follows live deliveries through
// the trailer. The header goes out with the first points once b's batch
// record is synced, so a client never holds an id a crash could lose.
// Any number of attachments can serve one batch concurrently; whichever
// writes the trailer first retires the batch, and the trailer leaves
// with the end of its response. An attachment ends early — a truncated
// stream — when its client leaves or the server shuts down; the batch
// runs on under its own context.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, b *batchState, from int) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)

	wake := make(chan struct{}, 1)
	b.mu.Lock()
	b.wakers[wake] = struct{}{}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.wakers, wake)
		b.mu.Unlock()
	}()
	headed := false
	for next := max(from, 0); ; {
		b.mu.Lock()
		log, trailer, synced := b.log, b.ledger, b.synced
		b.mu.Unlock()
		if synced && (!headed || next < len(log) || trailer.Done) {
			if !headed {
				if err := enc.Encode(Header{Batch: b.id, Points: len(b.jobs), Studies: b.studies}); err != nil {
					return
				}
				headed = true
			}
			for _, sp := range log[min(next, len(log)):] {
				if err := enc.Encode(sp); err != nil {
					return // client gone
				}
			}
			next = max(next, len(log))
			if trailer.Done {
				// No flush: the trailer leaves with the response's end, in
				// one write with its final chunk, so the read that brings
				// the client the trailer also ends the response, and the
				// connection goes back to the client's pool for its next
				// batch instead of being dropped.
				if enc.Encode(trailer) == nil {
					s.retireBatch(b)
				}
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}
