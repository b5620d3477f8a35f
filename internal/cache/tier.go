package cache

import (
	"container/list"
	"sync"
)

// Tier is one backing level of the Cache. The Cache consults its tiers in
// order (memory LRU, then disk, then remote peer) and hydrates upward on a
// hit, so lower tiers fill the faster ones above them.
//
// A Tier is an accelerator, never a system of record: Load must express
// every failure as a LoadResult (a miss variant), and Store is best-effort
// — its error is counted by the Cache, not surfaced to callers.
// Implementations must be safe for concurrent use.
type Tier interface {
	// Load returns the entry for k and how the lookup resolved.
	Load(k Key) (Entry, LoadResult)
	// Store writes k. Failures are reported, counted by the Cache, and
	// otherwise ignored.
	Store(k Key, e Entry) error
}

// LoadResult is the outcome of one Tier.Load. Everything except LoadHit is
// a miss from the caller's point of view — the distinctions exist only so
// the Cache can count what happened.
type LoadResult int

const (
	// LoadMiss: the tier holds no entry for the key.
	LoadMiss LoadResult = iota
	// LoadHit: the entry was found and decoded.
	LoadHit
	// LoadCorrupt: an entry was present but undecodable (bad magic, torn
	// write, checksum failure). The disk tier quarantines the file on
	// detection, so each corruption event is counted once.
	LoadCorrupt
	// LoadUnavailable: the tier itself failed — an I/O error, or a remote
	// peer that is down, slow, or refusing. The remote tier marks itself
	// down and re-probes with backoff before answering this again.
	LoadUnavailable
)

// node is one memory-tier slot; list elements hold *node.
type node struct {
	k Key
	e Entry
}

// memTier is the always-present in-memory LRU tier. It carries its own lock
// so lower-tier I/O never serializes behind memory bookkeeping.
type memTier struct {
	mu        sync.Mutex
	max       int
	lru       *list.List            // front = most recently used
	index     map[Key]*list.Element // key -> lru element
	evictions int64
}

func newMemTier(max int) *memTier {
	return &memTier{
		max:   max,
		lru:   list.New(),
		index: make(map[Key]*list.Element),
	}
}

func (m *memTier) Load(k Key) (Entry, LoadResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.index[k]
	if !ok {
		return Entry{}, LoadMiss
	}
	m.lru.MoveToFront(el)
	return el.Value.(*node).e, LoadHit
}

func (m *memTier) Store(k Key, e Entry) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.index[k]; ok {
		el.Value.(*node).e = e
		m.lru.MoveToFront(el)
		return nil
	}
	m.index[k] = m.lru.PushFront(&node{k: k, e: e})
	for m.lru.Len() > m.max {
		back := m.lru.Back()
		m.lru.Remove(back)
		delete(m.index, back.Value.(*node).k)
		m.evictions++
	}
	return nil
}

func (m *memTier) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lru.Len()
}

func (m *memTier) evicted() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evictions
}
