package cache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// keyOf builds a distinct test key from a label.
func keyOf(label string) Key {
	h := NewHasher()
	h.String(label)
	return h.Sum()
}

func TestMemoryTierPutGet(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("a")
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache returned a hit")
	}
	want := Entry{WriteGiBs: 1.25, ReadGiBs: 2.5}
	c.Put(k, want)
	got, ok := c.Get(k)
	if !ok || got != want {
		t.Fatalf("Get = %+v, %v; want %+v", got, ok, want)
	}
	st := c.Stats()
	if st.Hits != 1 || st.MemHits != 1 || st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Lookups() != 2 || st.HitRate() != 0.5 {
		t.Fatalf("lookups=%d rate=%v", st.Lookups(), st.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := keyOf("a"), keyOf("b"), keyOf("d")
	c.Put(a, Entry{WriteGiBs: 1})
	c.Put(b, Entry{WriteGiBs: 2})
	// Touch a so b is the LRU victim when d arrives.
	if _, ok := c.Get(a); !ok {
		t.Fatal("a missing before eviction")
	}
	c.Put(d, Entry{WriteGiBs: 3})
	if _, ok := c.Get(b); ok {
		t.Fatal("LRU victim b survived")
	}
	if _, ok := c.Get(a); !ok {
		t.Fatal("recently-used a evicted")
	}
	if _, ok := c.Get(d); !ok {
		t.Fatal("newest d evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d", st.Evictions)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c, err := New(Options{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("a")
	c.Put(k, Entry{WriteGiBs: 1})
	c.Put(k, Entry{WriteGiBs: 9})
	if got, _ := c.Get(k); got.WriteGiBs != 9 {
		t.Fatalf("refresh lost: %+v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate slot for refreshed key: len=%d", c.Len())
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("point")
	want := Entry{WriteGiBs: 3.14159, ReadGiBs: 2.71828}
	c1.Put(k, want)

	// A fresh cache over the same directory must serve the entry from disk
	// and hydrate its memory tier.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(k)
	if !ok || got != want {
		t.Fatalf("disk round trip = %+v, %v; want %+v", got, ok, want)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Second lookup is a memory hit: the disk hit hydrated the LRU.
	if _, ok := c2.Get(k); !ok {
		t.Fatal("hydrated entry missing")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after hydration = %+v", st)
	}
}

func TestEvictedEntrySurvivesOnDisk(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{MaxEntries: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a, b := keyOf("a"), keyOf("b")
	c.Put(a, Entry{WriteGiBs: 1})
	c.Put(b, Entry{WriteGiBs: 2}) // evicts a from memory, not from disk
	got, ok := c.Get(a)
	if !ok || got.WriteGiBs != 1 {
		t.Fatalf("evicted entry not re-served from disk: %+v, %v", got, ok)
	}
	if st := c.Stats(); st.Evictions == 0 || st.DiskHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCorruptEntriesAreMisses is the corruption-tolerance contract: a bad
// disk entry of any shape is a miss, never an error, it is quarantined on
// first detection so Stats.Corrupt counts distinct corruption events
// rather than one bad file forever, and a subsequent Put repairs it.
func TestCorruptEntriesAreMisses(t *testing.T) {
	cases := []struct {
		name    string
		content []byte
	}{
		{"empty", nil},
		{"truncated", []byte(diskMagic + "abc")},
		{"wrong magic", make([]byte, diskSize)},
		{"oversized", append([]byte(diskMagic), make([]byte, 64)...)},
		{"bad checksum", func() []byte {
			buf := make([]byte, diskSize)
			copy(buf, diskMagic)
			buf[diskSize-1] ^= 0xFF
			buf[len(diskMagic)] = 7 // non-zero payload so the zero CRC can't accidentally match
			return buf
		}()},
		{"retired v1 format", func() []byte {
			// A well-formed record of the retired "daoscch1" format
			// (bandwidths only, valid checksum) is a miss and is
			// rewritten, never served as a hit.
			buf := make([]byte, 8+2*8+4)
			copy(buf, "daoscch1")
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(5))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(7))
			binary.LittleEndian.PutUint32(buf[24:], crc32.ChecksumIEEE(buf[8:24]))
			return buf
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			k := keyOf("victim")
			if err := os.WriteFile(c.path(k), tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(k); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			st := c.Stats()
			if st.Misses != 1 || st.Corrupt != 1 {
				t.Fatalf("stats = %+v", st)
			}
			// The bad file is quarantined on first detection, so looking
			// the key up again is a plain miss — the corrupt counter must
			// not grow on re-lookup of the same event.
			if _, err := os.Stat(c.path(k)); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not quarantined: %v", err)
			}
			if _, ok := c.Get(k); ok {
				t.Fatal("quarantined entry served as a hit")
			}
			if st := c.Stats(); st.Misses != 2 || st.Corrupt != 1 {
				t.Fatalf("stats after re-lookup = %+v", st)
			}
			// The store path must repair the slot.
			want := Entry{WriteGiBs: 5}
			c.Put(k, want)
			c2, err := New(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := c2.Get(k); !ok || got != want {
				t.Fatalf("repair failed: %+v, %v", got, ok)
			}
		})
	}
}

func TestDiskTierDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	if _, err := New(Options{Dir: dir}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("dir not created: %v", err)
	}
}

func TestDiskTierBadDir(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("New over a file path succeeded")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Options{MaxEntries: 64, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := keyOf(fmt.Sprintf("k%d", i%32))
				if e, ok := c.Get(k); ok && e.WriteGiBs != float64(i%32) {
					t.Errorf("wrong value for shared key: %v", e)
				}
				c.Put(k, Entry{WriteGiBs: float64(i % 32)})
			}
		}(w)
	}
	wg.Wait()
}

func TestStatsString(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf("a")
	c.Put(k, Entry{})
	c.Get(k)
	s := c.Stats().String()
	// The CI cache-smoke step greps for the rate marker; pin it here so a
	// format change can't silently break the workflow.
	if !strings.Contains(s, "(100.0% hits)") {
		t.Fatalf("stats string lost the hit-rate marker: %q", s)
	}
}

func TestHasherInjective(t *testing.T) {
	// Field-boundary attack: ("ab","c") vs ("a","bc") must differ because
	// strings are length-prefixed.
	h1 := NewHasher()
	h1.String("ab")
	h1.String("c")
	h2 := NewHasher()
	h2.String("a")
	h2.String("bc")
	if h1.Sum() == h2.Sum() {
		t.Fatal("length prefixing failed")
	}
	// Typed fields write fixed widths: (1,2) as two ints differs from one
	// int64 with the same concatenated bits only via count — check a simple
	// split collision.
	h3 := NewHasher()
	h3.Uint64(1)
	h3.Uint64(2)
	h4 := NewHasher()
	h4.Uint64(2)
	h4.Uint64(1)
	if h3.Sum() == h4.Sum() {
		t.Fatal("field order ignored")
	}
}
