package cache

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// entryFiles returns the .pt files resident in dir and their total size.
func entryFiles(t *testing.T, dir string) (map[string]bool, int64) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]bool)
	var total int64
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != ".pt" {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		files[ent.Name()] = true
		total += fi.Size()
	}
	return files, total
}

// age backdates k's entry file so the eviction ranking sees it as old.
func age(t *testing.T, dir string, k Key, by time.Duration) {
	t.Helper()
	old := time.Now().Add(-by)
	if err := os.Chtimes(filepath.Join(dir, k.String()+".pt"), old, old); err != nil {
		t.Fatal(err)
	}
}

// TestDiskEvictionHoldsBudget stores more entries than the byte budget
// admits and checks that the oldest-accessed files are the ones evicted,
// the resident set fits the budget, and Stats counts the evictions.
func TestDiskEvictionHoldsBudget(t *testing.T) {
	dir := t.TempDir()
	// Budget for exactly three of the fixed-size entry records.
	c, err := New(Options{Dir: dir, MaxDiskBytes: 3 * int64(diskSize)})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 5)
	for i := range keys {
		keys[i] = keyOf(string(rune('a' + i)))
		c.Put(keys[i], Entry{WriteGiBs: float64(i)})
		// Separate the mtimes so the LRU order is unambiguous
		// regardless of filesystem timestamp granularity.
		age(t, dir, keys[i], time.Duration(len(keys)-i)*time.Minute)
	}
	// Storing key 5 over a full budget must evict the two oldest (0, 1).
	last := keyOf("last")
	c.Put(last, Entry{WriteGiBs: 99})

	files, total := entryFiles(t, dir)
	if max := 3 * int64(diskSize); total > max {
		t.Fatalf("resident %d bytes exceeds budget %d", total, max)
	}
	for _, k := range keys[:3] {
		if files[k.String()+".pt"] {
			t.Fatalf("oldest entry %s survived eviction; resident: %v", k, files)
		}
	}
	for _, k := range append(keys[3:], last) {
		if !files[k.String()+".pt"] {
			t.Fatalf("recent entry %s was evicted; resident: %v", k, files)
		}
	}
	if got := c.Stats().DiskEvicts; got != 3 {
		t.Fatalf("Stats.DiskEvicts = %d, want 3", got)
	}
}

// TestDiskEvictionSparesRecentHits checks that a Load refreshes an
// entry's mtime, protecting hot entries from eviction even when
// they were stored first.
func TestDiskEvictionSparesRecentHits(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, MaxDiskBytes: 2 * int64(diskSize)})
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := keyOf("hot"), keyOf("cold")
	c.Put(hot, Entry{WriteGiBs: 1})
	c.Put(cold, Entry{WriteGiBs: 2})
	age(t, dir, hot, time.Hour)
	age(t, dir, cold, time.Minute)

	// A disk hit must touch the file; drop the memory tier first so the
	// lookup actually reaches disk.
	c.mem = newMemTier(4)
	if _, ok := c.Get(hot); !ok {
		t.Fatal("hot entry missing before eviction")
	}

	c.Put(keyOf("filler"), Entry{WriteGiBs: 3})
	files, _ := entryFiles(t, dir)
	if !files[hot.String()+".pt"] {
		t.Fatal("recently hit entry was evicted")
	}
	if files[cold.String()+".pt"] {
		t.Fatal("least recently used entry survived over the hit one")
	}
}

// TestBoundedTierCensusOnOpen checks that a reopened bounded tier counts
// pre-existing entries against the budget instead of starting from zero.
func TestBoundedTierCensusOnOpen(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = keyOf(string(rune('p' + i)))
		c1.Put(keys[i], Entry{WriteGiBs: float64(i)})
		age(t, dir, keys[i], time.Duration(len(keys)-i)*time.Minute)
	}

	c2, err := New(Options{Dir: dir, MaxDiskBytes: 2 * int64(diskSize)})
	if err != nil {
		t.Fatal(err)
	}
	c2.Put(keyOf("new"), Entry{WriteGiBs: 9})
	if _, total := entryFiles(t, dir); total > 2*int64(diskSize) {
		t.Fatalf("reopened tier ignored pre-existing bytes: resident %d", total)
	}
	if got := c2.Stats().DiskEvicts; got < 3 {
		t.Fatalf("Stats.DiskEvicts = %d, want >= 3", got)
	}
}

// TestUnboundedTierNeverEvicts pins the default: without MaxDiskBytes the
// disk tier grows without bound and counts no evictions.
func TestUnboundedTierNeverEvicts(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		c.Put(keyOf(string(rune('A'+i))), Entry{WriteGiBs: float64(i)})
	}
	files, _ := entryFiles(t, dir)
	if len(files) != 16 {
		t.Fatalf("unbounded tier holds %d entries, want 16", len(files))
	}
	if got := c.Stats().DiskEvicts; got != 0 {
		t.Fatalf("Stats.DiskEvicts = %d, want 0", got)
	}
}
