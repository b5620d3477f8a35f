package sim

// RNG is a small deterministic pseudo-random source (xorshift64*), used for
// every stochastic choice in the simulation so runs are reproducible from a
// single seed. It intentionally avoids math/rand's global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (zero is remapped, since the
// xorshift state must be nonzero).
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed rewinds the generator to the state NewRNG(seed) starts from,
// applying the same zero remap.
func (r *RNG) Seed(seed uint64) {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	r.state = seed
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive bound")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Shuffle pseudo-randomly reorders n elements using the provided swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent stream from this one, for components that need
// their own substream without perturbing the parent sequence consumers.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() | 1)
}
