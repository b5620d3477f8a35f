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

	// order serializes deliveries from the duplicate check through the
	// journal append to the log append, so journal order is delivery
	// order — the order recovery re-sequences from. done marks positions
	// already delivered (or recovered).
	order sync.Mutex
	done  []bool

	// mu guards the log, the ledger, and the attachment wakers, and is
	// held only to append. The log is allocated at len(jobs) and never
	// reallocates, so entries below len(log) never change and attachments
	// read them without copying; log[i].Seq == i+1.
	mu     sync.Mutex
	log    []StreamPoint
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

// deliver records the result for position pos of batch b. A result that
// lands after b's context ended is the cancellation echoing back: nobody
// streams it, and the journal must not record it (a restarted server
// re-runs the point instead). Duplicates are dropped too, which keeps the
// log within its allocation. A registered batch journals the result
// before it becomes visible, so a point a client saw is always a point a
// restarted server still has; the fsync happens outside b.mu, so
// attachments keep streaming while it runs.
func (s *Server) deliver(b *batchState, pos int, sp StreamPoint) {
	b.order.Lock()
	defer b.order.Unlock()
	if b.ctx.Err() != nil || b.done[pos] {
		return
	}
	b.done[pos] = true
	if b.id != "" {
		if err := s.store.AppendPoint(b.id, jobstore.PointRecord{
			Pos:       pos,
			Point:     sp.toPoint(),
			CacheHit:  sp.CacheHit,
			Coalesced: sp.Coalesced,
		}); err != nil {
			s.journalErrs.Add(1)
		}
	}
	b.mu.Lock()
	b.pushLocked(sp)
	for wake := range b.wakers {
		select {
		case wake <- struct{}{}:
		default: // already pending
		}
	}
	b.mu.Unlock()
}

// serveBatch streams b's log from offset from (a seq: the client has
// everything up to and including it) and follows live deliveries through
// the trailer. Any number of attachments can serve one batch
// concurrently; whichever delivers the trailer first retires the batch.
// An attachment ends early — a truncated stream — when its client leaves
// or the server shuts down; the batch runs on under its own context.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, b *batchState, from int) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if err := enc.Encode(Header{Batch: b.id, Points: len(b.jobs), Studies: b.studies}); err != nil {
		return
	}
	flush()

	wake := make(chan struct{}, 1)
	b.mu.Lock()
	b.wakers[wake] = struct{}{}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		delete(b.wakers, wake)
		b.mu.Unlock()
	}()
	for next := max(from, 0); ; {
		b.mu.Lock()
		log, trailer := b.log, b.ledger
		b.mu.Unlock()
		if next < len(log) {
			for _, sp := range log[next:] {
				if err := enc.Encode(sp); err != nil {
					return // client gone
				}
			}
			flush()
			next = len(log)
		}
		if trailer.Done {
			if err := enc.Encode(trailer); err != nil {
				return
			}
			flush()
			s.retireBatch(b)
			return
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
