package sim

// Arena owns a reusable simulator, so a worker that executes many
// simulations back to back (a study sweep pool worker, a daosd worker
// slot) pays the kernel's setup cost once instead of per run: consecutive
// Get calls hand back the same Sim with its event-heap and ready-queue
// storage, event and flow free lists, RNG, and arena of parked process
// coroutines intact, rewound to a fresh seed. Results are byte-identical
// to fresh-Sim runs — Reset restores exactly the observable state New
// creates, which the kernel's reset-isolation tests pin.
//
// An Arena serves one caller at a time and has no internal locking: the
// intended owner is a single worker goroutine that holds it for its
// lifetime and calls Drain when it retires. A simulation that fails to
// quiesce (live or parked processes left behind at the next Get, or a
// process panic) cannot be rewound; Get discards it and starts over with a
// fresh Sim, counting the event in Discarded. A discard stops every
// coroutine of the abandoned Sim: each live process body unwinds, running
// its deferred calls, and no goroutine is left behind.
type Arena struct {
	sim *Sim

	// Discarded counts simulators abandoned because they had not quiesced
	// when the next Get needed them. A non-zero count means some run
	// leaked processes or panicked — worth investigating.
	Discarded int
}

// NewArena returns an empty arena; the first Get populates it.
func NewArena() *Arena { return &Arena{} }

// Get returns a simulator seeded with seed, reusing the arena's kernel
// state when the previous simulation quiesced and building a fresh Sim
// otherwise.
func (a *Arena) Get(seed uint64) *Sim {
	if a.sim != nil {
		if a.sim.Quiesced() {
			a.sim.Reset(seed)
			return a.sim
		}
		a.sim.discard()
		a.Discarded++
	}
	a.sim = New(seed)
	return a.sim
}

// Drain discards the held simulator as Get would, stopping all its
// coroutines (each has exited when Drain returns). Call it when the owning
// worker retires; leak tests pin that goroutine counts return to baseline
// after a drained sweep.
func (a *Arena) Drain() {
	if a.sim == nil {
		return
	}
	a.sim.discard()
	a.sim = nil
}
