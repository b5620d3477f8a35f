// Package cache implements a content-addressed memoization store for
// completed study points. Study points are pure functions of their
// configuration (see the key builder in internal/core): identical keys mean
// identical physics, so a completed point's bandwidths can be replayed from
// the cache instead of re-simulated.
//
// # Keys
//
// A Key is the SHA-256 of a canonical binary encoding of every
// output-affecting input (workload geometry, variant physics, node count,
// derived point seed, testbed sizing and cost models, and sim.KernelVersion).
// The cache itself treats keys as opaque: callers build them with a Hasher,
// which writes fixed-width, length-prefixed fields so distinct field
// sequences can never collide by concatenation. Because the encoding is
// canonical, keys are also identical across machines: two daosds that
// derive the same digest are by construction asking for the same point,
// which is what makes the cache safe to share over the network.
//
// # Tiers
//
// The cache is a stack of Tier implementations consulted in order. The
// in-memory tier is a bounded LRU map, always present; it serves repeated
// lookups within one process. The optional on-disk tier (Options.Dir, one
// small checksummed file per key) persists points across processes so CI
// re-runs and repeated command invocations start warm. The optional remote
// tier (Options.Peer) reads and writes a peer daosd's cache over HTTP,
// which is what makes dedup fleet-global: any daosim process pointed at
// the same peer shares one pool of completed points. A hit in a lower tier
// hydrates every tier above it; a store writes through all of them.
//
// Every tier is an accelerator, never a system of record: a tier that is
// missing, corrupt, down, or slow degrades to a miss — the simulator
// re-runs the point — and never to an error.
//
// # Invalidation and corruption
//
// Entries are never invalidated in place: a change to the simulated physics
// is a sim.KernelVersion bump, which changes every key and orphans old
// entries. Loads are corruption-tolerant by construction — an entry that is
// missing, truncated, mis-sized, or fails its checksum is a miss (counted in
// Stats.Corrupt), never an error. The disk tier quarantines an undecodable
// file when it first sees it, so Stats.Corrupt counts distinct corruption
// events rather than re-counting one bad file on every lookup, and the
// subsequent store repairs the slot.
package cache

import (
	"fmt"
	"path/filepath"
	"sync"

	"daosim/internal/backoff"
)

// Entry is one memoized study point: the measured bandwidth pair plus the
// degraded-mode outputs of fault-injected points. Grid coordinates (nodes,
// ranks) are not stored — they are part of the key and re-derived by the
// caller.
type Entry struct {
	WriteGiBs float64
	ReadGiBs  float64
	// DegradedGiBs, RecoverySec, and MapTransitions memoize the
	// degraded-window outputs of a fault-injected point; all zero for
	// points without a fault plan.
	DegradedGiBs   float64
	RecoverySec    float64
	MapTransitions int64
}

// Options configures a Cache.
type Options struct {
	// MaxEntries bounds the in-memory tier (default 4096 — a full paper
	// sweep is a few hundred points, so the default never evicts in
	// practice).
	MaxEntries int
	// Dir, when non-empty, adds a disk tier rooted there.
	Dir string
	// MaxDiskBytes bounds the disk tier: once its entry files exceed this
	// many bytes, stores evict the least-recently-used entries until the
	// tier fits again. <= 0 (the default) means unbounded.
	MaxDiskBytes int64
	// Peer, when non-empty, adds a remote tier backed by the daosd at
	// that address (host:port or an http:// URL). The remote tier sits
	// below disk, so a point found on the peer hydrates both local tiers.
	Peer string
	// PeerBackoff is the remote tier's down-window schedule; the zero
	// value takes the default (100ms doubling to 5s).
	PeerBackoff backoff.Schedule
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	Hits        int64 // lookups answered by any tier
	MemHits     int64 // ... answered by the memory tier
	DiskHits    int64 // ... answered by the disk tier
	RemoteHits  int64 // ... answered by the remote peer
	Misses      int64 // lookups no tier could answer
	Stores      int64 // entries written
	Evictions   int64 // memory-tier LRU evictions
	DiskEvicts  int64 // disk-tier LRU file evictions (bounded tiers only)
	Corrupt     int64 // undecodable entries (each counted once, then quarantined)
	DiskErrs    int64 // disk tier load/store failures
	RemoteErrs  int64 // remote tier failed exchanges (severed reads, refused puts)
	RemoteDowns int64 // remote peer up->down transitions
}

// Lookups returns the total number of Get calls observed.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate returns the fraction of lookups served from cache, or 0 when no
// lookups have happened.
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// String renders the stats as a one-line human summary.
func (s Stats) String() string {
	out := fmt.Sprintf("cache: %d lookups, %d hits, %d misses (%.1f%% hits), %d memory + %d disk",
		s.Lookups(), s.Hits, s.Misses, 100*s.HitRate(), s.MemHits, s.DiskHits)
	if s.RemoteHits > 0 || s.RemoteErrs > 0 || s.RemoteDowns > 0 {
		out += fmt.Sprintf(" + %d remote", s.RemoteHits)
	}
	out += fmt.Sprintf(", %d stores, %d evictions, %d corrupt", s.Stores, s.Evictions, s.Corrupt)
	if s.DiskEvicts > 0 {
		out += fmt.Sprintf(", %d disk evictions", s.DiskEvicts)
	}
	if s.DiskErrs > 0 {
		out += fmt.Sprintf(", %d disk write errors", s.DiskErrs)
	}
	if s.RemoteErrs > 0 || s.RemoteDowns > 0 {
		out += fmt.Sprintf(", %d remote errors (%d down-markings)", s.RemoteErrs, s.RemoteDowns)
	}
	return out
}

// Cache is a concurrency-safe tiered point cache: an in-memory LRU over
// zero or more lower tiers (disk, remote peer). The zero value is not
// usable; call New.
type Cache struct {
	mem    *memTier
	tiers  []Tier // lower tiers, in lookup order
	remote *remoteTier
	disk   *diskTier
	dir    string

	mu    sync.Mutex // guards stats; tiers carry their own locks
	stats Stats
}

// New builds a Cache from o.
func New(o Options) (*Cache, error) {
	if o.MaxEntries <= 0 {
		o.MaxEntries = 4096
	}
	c := &Cache{mem: newMemTier(o.MaxEntries), dir: o.Dir}
	if o.Dir != "" {
		d, err := newDiskTier(o.Dir, o.MaxDiskBytes)
		if err != nil {
			return nil, err
		}
		c.disk = d
		c.tiers = append(c.tiers, d)
	}
	if o.Peer != "" {
		c.remote = newRemoteTier(o.Peer, o.PeerBackoff)
		c.tiers = append(c.tiers, c.remote)
	}
	return c, nil
}

// isNetwork reports whether t is the remote tier. GetLocal and PutLocal
// skip it, which is what keeps a daosd serving its own /v1/cache endpoints
// from forwarding lookups to its peer in a loop.
func (c *Cache) isNetwork(t Tier) bool { return t == c.remote }

// Get returns the cached entry for k, consulting every tier in order and
// hydrating the tiers above a hit.
func (c *Cache) Get(k Key) (Entry, bool) { return c.lookup(k, true) }

// GetLocal is Get restricted to local tiers (memory, disk). It is what a
// daosd's own /v1/cache endpoints serve from, so a fleet of peers pointed
// at each other can never turn one lookup into a forwarding loop.
func (c *Cache) GetLocal(k Key) (Entry, bool) { return c.lookup(k, false) }

func (c *Cache) lookup(k Key, network bool) (Entry, bool) {
	if e, r := c.mem.Load(k); r == LoadHit {
		c.count(func(s *Stats) { s.Hits++; s.MemHits++ })
		return e, true
	}
	for i, t := range c.tiers {
		if !network && c.isNetwork(t) {
			continue
		}
		e, r := t.Load(k)
		switch r {
		case LoadHit:
			c.mem.Store(k, e)
			// Hydrate the tiers this one sits below, so the next process
			// (or the next restart) finds the entry closer to home.
			for _, up := range c.tiers[:i] {
				if !network && c.isNetwork(up) {
					continue
				}
				c.storeTier(up, k, e)
			}
			c.count(func(s *Stats) {
				s.Hits++
				if c.isNetwork(t) {
					s.RemoteHits++
				} else {
					s.DiskHits++
				}
			})
			return e, true
		case LoadCorrupt:
			c.count(func(s *Stats) { s.Corrupt++ })
		case LoadUnavailable:
			c.count(func(s *Stats) {
				if c.isNetwork(t) {
					s.RemoteErrs++
				} else {
					s.DiskErrs++
				}
			})
		}
	}
	c.count(func(s *Stats) { s.Misses++ })
	return Entry{}, false
}

// Put stores e under k, writing through every tier.
func (c *Cache) Put(k Key, e Entry) { c.store(k, e, true) }

// PutLocal is Put restricted to local tiers — the write path of a daosd's
// /v1/cache PUT endpoint (see GetLocal).
func (c *Cache) PutLocal(k Key, e Entry) { c.store(k, e, false) }

func (c *Cache) store(k Key, e Entry, network bool) {
	c.mem.Store(k, e)
	c.count(func(s *Stats) { s.Stores++ })
	for _, t := range c.tiers {
		if !network && c.isNetwork(t) {
			continue
		}
		c.storeTier(t, k, e)
	}
}

// storeTier writes to one lower tier, counting (never surfacing) failure.
func (c *Cache) storeTier(t Tier, k Key, e Entry) {
	if err := t.Store(k, e); err != nil {
		c.count(func(s *Stats) {
			if c.isNetwork(t) {
				s.RemoteErrs++
			} else {
				s.DiskErrs++
			}
		})
	}
}

func (c *Cache) count(f func(*Stats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	s := c.stats
	c.mu.Unlock()
	s.Evictions = c.mem.evicted()
	if c.disk != nil {
		s.DiskEvicts = c.disk.evicted()
	}
	if c.remote != nil {
		s.RemoteDowns = c.remote.downCount()
	}
	return s
}

// Len returns the number of entries resident in the memory tier.
func (c *Cache) Len() int { return c.mem.len() }

// path returns the disk-tier file for k (used by tests to corrupt and
// inspect entries on disk).
func (c *Cache) path(k Key) string {
	return filepath.Join(c.dir, k.String()+".pt")
}
