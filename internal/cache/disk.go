package cache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Entry record layout: an 8-byte magic, the payload fields in little-endian
// bits, and a CRC-32 of the payload. Anything that does not parse exactly
// is ErrCorruptEntry. The encoding serves two transports with one format:
// the disk tier's per-key files, and the HTTP body of the remote tier's
// GET/PUT /v1/cache/{key} exchanges — the checksum rides along in both, so
// a torn disk write and a truncated network body are rejected identically.
//
// The format ("daoscch2") stores five payload fields: the two bandwidths,
// the two degraded-window float64s, and the map-transition count. A
// record of the retired "daoscch1" format decodes as corrupt, which costs
// one cache miss: the point is re-simulated and rewritten in this format.
const (
	diskMagic   = "daoscch2"
	diskPayload = 5 * 8
	diskSize    = len(diskMagic) + diskPayload + 4
)

// ErrCorruptEntry reports a record that was present but did not decode:
// wrong magic, wrong size, or checksum failure.
var ErrCorruptEntry = errors.New("cache: undecodable entry record")

// EncodeEntry renders e in the checksummed record format shared by the
// disk tier's files and the remote tier's HTTP bodies.
func EncodeEntry(e Entry) []byte {
	buf := make([]byte, diskSize)
	copy(buf, diskMagic)
	binary.LittleEndian.PutUint64(buf[len(diskMagic):], math.Float64bits(e.WriteGiBs))
	binary.LittleEndian.PutUint64(buf[len(diskMagic)+8:], math.Float64bits(e.ReadGiBs))
	binary.LittleEndian.PutUint64(buf[len(diskMagic)+16:], math.Float64bits(e.DegradedGiBs))
	binary.LittleEndian.PutUint64(buf[len(diskMagic)+24:], math.Float64bits(e.RecoverySec))
	binary.LittleEndian.PutUint64(buf[len(diskMagic)+32:], uint64(e.MapTransitions))
	binary.LittleEndian.PutUint32(buf[len(diskMagic)+diskPayload:], crc32.ChecksumIEEE(buf[len(diskMagic):len(diskMagic)+diskPayload]))
	return buf
}

// DecodeEntry parses a record produced by EncodeEntry. Any record that is
// truncated, oversized, mis-tagged, or checksum-failed returns
// ErrCorruptEntry.
func DecodeEntry(buf []byte) (Entry, error) {
	if len(buf) != diskSize || string(buf[:len(diskMagic)]) != diskMagic {
		return Entry{}, ErrCorruptEntry
	}
	payload := buf[len(diskMagic) : len(diskMagic)+diskPayload]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(buf[len(diskMagic)+diskPayload:]) {
		return Entry{}, ErrCorruptEntry
	}
	return Entry{
		WriteGiBs:      math.Float64frombits(binary.LittleEndian.Uint64(payload[0:])),
		ReadGiBs:       math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])),
		DegradedGiBs:   math.Float64frombits(binary.LittleEndian.Uint64(payload[16:])),
		RecoverySec:    math.Float64frombits(binary.LittleEndian.Uint64(payload[24:])),
		MapTransitions: int64(binary.LittleEndian.Uint64(payload[32:])),
	}, nil
}

// diskTier persists entries as one small checksummed file per key,
// optionally bounded to max bytes with least-recently-used file
// eviction (ranked by mtime: every Store writes a fresh file, and a
// bounded tier's Load touches it on every hit).
type diskTier struct {
	dir string
	max int64 // byte budget; <= 0 means unbounded

	mu        sync.Mutex
	size      int64 // sum of resident .pt file sizes (bounded tiers only)
	evictions int64
}

// newDiskTier opens the on-disk tier rooted at dir, creating the directory
// if missing. Once the tier's .pt files exceed maxBytes, stores evict the
// least-recently-used entries (oldest modification time first) until the
// tier fits again. maxBytes <= 0 means unbounded. The budget is enforced per
// store, so the tier can briefly hold one entry over it.
func newDiskTier(dir string, maxBytes int64) (*diskTier, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk tier: %w", err)
	}
	d := &diskTier{dir: dir, max: maxBytes}
	if d.max > 0 {
		// Take the resident census once; stores keep it incremental.
		ents, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("cache: disk tier: %w", err)
		}
		for _, ent := range ents {
			if filepath.Ext(ent.Name()) != ".pt" {
				continue
			}
			if fi, err := ent.Info(); err == nil {
				d.size += fi.Size()
			}
		}
	}
	return d, nil
}

// evicted returns the number of entry files evicted to hold the budget.
func (d *diskTier) evicted() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.evictions
}

func (d *diskTier) Name() string { return "disk" }

// path returns the file for k.
func (d *diskTier) path(k Key) string {
	return filepath.Join(d.dir, k.String()+".pt")
}

// Load reads k. A file that exists but does not decode is quarantined —
// removed on first detection — so Stats.Corrupt counts distinct corruption
// events rather than re-counting one bad file on every lookup, and the
// slot reads as a plain miss until the next store repairs it. Read errors
// other than absence are LoadUnavailable (the file is left in place: an
// unreadable file is not evidence of a bad record).
func (d *diskTier) Load(k Key) (Entry, LoadResult) {
	buf, err := os.ReadFile(d.path(k))
	if err != nil {
		if os.IsNotExist(err) {
			return Entry{}, LoadMiss
		}
		return Entry{}, LoadUnavailable
	}
	e, err := DecodeEntry(buf)
	if err != nil {
		os.Remove(d.path(k)) // best-effort quarantine
		return Entry{}, LoadCorrupt
	}
	if d.max > 0 {
		// Touch the entry so LRU eviction, which ranks by mtime, sees this
		// hit (a read alone never moves mtime, and relatime mounts defer
		// read-driven atime updates).
		now := time.Now()
		os.Chtimes(d.path(k), now, now)
	}
	return e, LoadHit
}

// Store writes k atomically (temp file + rename), so a crashed or
// concurrent writer can never leave a torn entry at the final path. On
// a bounded tier the store then evicts least-recently-used entries
// until the tier fits its byte budget again.
func (d *diskTier) Store(k Key, e Entry) error {
	rec := EncodeEntry(e)
	var replaced int64
	if d.max > 0 {
		if fi, err := os.Stat(d.path(k)); err == nil {
			replaced = fi.Size()
		}
	}
	tmp, err := os.CreateTemp(d.dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(rec); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), d.path(k)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if d.max > 0 {
		d.mu.Lock()
		d.size += int64(len(rec)) - replaced
		if d.size > d.max {
			d.evictLocked(k.String() + ".pt")
		}
		d.mu.Unlock()
	}
	return nil
}

// evictLocked removes least-recently-used .pt files (oldest mtime first)
// until the tier fits d.max, sparing keep — the entry whose
// store triggered the eviction (evicting what was just written would
// make the newest point the first casualty).
func (d *diskTier) evictLocked(keep string) {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type candidate struct {
		name  string
		size  int64
		mtime time.Time
	}
	var cands []candidate
	var resident int64
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != ".pt" {
			continue
		}
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		resident += fi.Size()
		if ent.Name() == keep {
			continue
		}
		cands = append(cands, candidate{name: ent.Name(), size: fi.Size(), mtime: fi.ModTime()})
	}
	// Trust the census over the incremental estimate (an external sweep
	// may have removed files behind our back).
	d.size = resident
	sort.Slice(cands, func(i, j int) bool { return cands[i].mtime.Before(cands[j].mtime) })
	for _, c := range cands {
		if d.size <= d.max {
			break
		}
		if os.Remove(filepath.Join(d.dir, c.name)) == nil {
			d.size -= c.size
			d.evictions++
		}
	}
}
