// Package jobstore is daosd's persistent submission journal: a
// checksummed append-only record log that makes study batches survive a
// coordinator crash. The server appends one batch record when a
// submission arrives and point records as results land, one group per
// commit; on restart, Open replays the journal and hands back every batch
// that has not been fully delivered, with its completed points — the
// server re-enqueues only the missing ones and serves the rest without
// re-simulation.
//
// # On-disk format
//
// A journal directory holds numbered segment files (journal-00000001.seg,
// ...). Each segment starts with the 8-byte magic "daosjnl1" followed by
// framed records:
//
//	u32 payload length (little endian)
//	u8  record type (1=batch, 2=point, 3=done)
//	    JSON payload
//	u32 CRC-32 (IEEE) over type byte + payload
//
// The codec discipline matches the cache's daoscch2 records: every byte
// that matters is covered by the checksum, and torn or garbled data is a
// recovery boundary, never an error. Replay stops at the first record
// that is short, oversized, or fails its CRC — exactly the crash-
// mid-append case — and everything before the tear is recovered intact.
// Records that decode but reference an unknown batch (a point or done
// whose batch record fell past an earlier tear) are skipped.
//
// # Appends, retirement and compaction
//
// Every append is one write, however many records it carries, and a
// crash during it tears at most that write, whose whole frames before
// the tear replay. Durability is one shared fsync: AppendPoint and Sync
// return once an fsync that began after their write has ended, so every
// record appended before them survives an OS crash. At most one fsync
// runs at a time, and it runs outside the store's mutex: appends and
// retirements go on during it, and a waiter that an ended fsync already
// covered returns without starting another (group commit). AppendBatch
// and BatchDone write without syncing: the next AppendPoint or Sync
// covers them, and until then kill -9 loses nothing, since written
// frames sit in the page cache; only an OS crash can. After a failed
// write, truncate or fsync the store refuses every later append, sync
// and retirement with that first error, because a record behind a torn
// frame would never replay and the kernel may have dropped the unsynced
// data. BatchDone appends a done record while other batches are live;
// retiring the last live batch instead truncates the segment back to its
// magic header, so a quiet server's journal is just that header. Open
// compacts the live state (batches not yet done) into a fresh segment
// via temp+rename and deletes the older ones, so a journal left behind
// by a crash does not accumulate retired history.
package jobstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"daosim/internal/core"
)

const (
	magic = "daosjnl1"
	// maxPayload bounds a single record; anything larger in the length
	// field is corruption (the biggest real payload is a batch record,
	// well under a megabyte).
	maxPayload = 64 << 20
	// frameOverhead is the non-payload bytes of one framed record.
	frameOverhead = 4 + 1 + 4
)

type recordType byte

const (
	recBatch recordType = 1
	recPoint recordType = 2
	recDone  recordType = 3
)

// PointRecord is one completed point of a journaled batch: its position
// in the batch's core.Decompose job order plus the result and the
// stream flags the original delivery carried, so a replayed stream is
// byte-identical to the first one.
type PointRecord struct {
	Pos       int        `json:"pos"`
	Point     core.Point `json:"point"`
	CacheHit  bool       `json:"hit,omitempty"`
	Coalesced bool       `json:"coalesced,omitempty"`
}

// Batch is one recovered submission: the configs as submitted (the
// server re-runs core.Decompose over them, which is deterministic, so
// positions line up) and the points that completed before the crash, in
// delivery order.
type Batch struct {
	ID      string
	Configs []core.Config
	Points  []PointRecord
}

// Journal record payloads. Point records flatten PointRecord so the
// on-disk shape has no nesting to version around.
type batchRecord struct {
	ID      string        `json:"id"`
	Configs []core.Config `json:"configs"`
}

type pointRecord struct {
	ID string `json:"id"`
	PointRecord
}

type doneRecord struct {
	ID string `json:"id"`
}

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("jobstore: store is closed")

// maxKeptBuf bounds the frame buffer a Store keeps between appends: one
// outsized batch record must not pin its size for the process's life.
const maxKeptBuf = 1 << 20

// Store is an open journal directory. All methods are safe for
// concurrent use.
type Store struct {
	dir       string
	recovered []Batch
	syncs     atomic.Int64

	mu     sync.Mutex
	f      *os.File
	live   map[string]bool
	closed bool
	// err is the first failed write, truncate or fsync; every append,
	// sync and retirement after it returns err and writes nothing.
	err error
	// buf holds the frames of one append and is reused by the next.
	buf []byte
	// wrote counts the writes and truncations of the append segment;
	// synced is what wrote was when the last successful fsync began, so
	// every write up to it is durable. syncing is set while an fsync runs
	// outside mu, and syncDone signals its end.
	wrote, synced uint64
	syncing       bool
	syncDone      sync.Cond
}

// Open replays the journal under dir (creating it if needed), compacts
// the live batches into a fresh segment, and returns the store ready
// for appends. The recovered batches — submissions that never finished
// streaming — are available from Recovered, in submission order.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	// Replay every segment in order. Order within the live set is
	// submission order because compaction preserves it and appends only
	// go to the newest segment.
	ids := []string{}
	byID := map[string]*Batch{}
	maxSeg := 0
	for _, seg := range segs {
		if seg.n > maxSeg {
			maxSeg = seg.n
		}
		buf, err := os.ReadFile(seg.path)
		if err != nil {
			return nil, fmt.Errorf("jobstore: %w", err)
		}
		for _, rec := range scanRecords(buf) {
			switch rec.typ {
			case recBatch:
				var br batchRecord
				if json.Unmarshal(rec.payload, &br) != nil || br.ID == "" {
					continue
				}
				if _, ok := byID[br.ID]; ok {
					continue // duplicate id; first submission wins
				}
				byID[br.ID] = &Batch{ID: br.ID, Configs: br.Configs}
				ids = append(ids, br.ID)
			case recPoint:
				var pr pointRecord
				if json.Unmarshal(rec.payload, &pr) != nil {
					continue
				}
				if b, ok := byID[pr.ID]; ok {
					b.Points = append(b.Points, pr.PointRecord)
				}
			case recDone:
				var dr doneRecord
				if json.Unmarshal(rec.payload, &dr) != nil {
					continue
				}
				if _, ok := byID[dr.ID]; ok {
					delete(byID, dr.ID)
				}
			}
		}
	}
	var liveBatches []Batch
	for _, id := range ids {
		if b, ok := byID[id]; ok {
			liveBatches = append(liveBatches, *b)
		}
	}
	s := &Store{
		dir:       dir,
		recovered: liveBatches,
		live:      make(map[string]bool, len(liveBatches)),
	}
	s.syncDone.L = &s.mu
	for _, b := range liveBatches {
		s.live[b.ID] = true
	}
	// Compact the live set into segment maxSeg+1 and drop everything
	// older. Always rotating — even from zero segments — means a torn
	// tail never survives into the append file.
	if err := s.rotateLocked(maxSeg+1, liveBatches); err != nil {
		return nil, err
	}
	for _, seg := range segs {
		os.Remove(seg.path)
	}
	return s, nil
}

// Recovered returns the batches Open replayed that had not finished:
// the server re-enqueues their incomplete points and replays the
// completed ones. The slice is owned by the caller.
func (s *Store) Recovered() []Batch { return s.recovered }

// Dir returns the journal directory.
func (s *Store) Dir() string { return s.dir }

// Syncs returns how many fsyncs the store has issued: compaction's at
// Open (the new segment and its directory), then one per fsync of the
// append segment, however many callers it covered.
func (s *Store) Syncs() int64 { return s.syncs.Load() }

// AppendBatch journals a new submission with one write and no fsync: the
// next AppendPoint or Sync makes it durable. It must be called before
// any AppendPoint for the same id.
func (s *Store) AppendBatch(id string, cfgs []core.Config) error {
	payload, err := json.Marshal(batchRecord{ID: id, Configs: cfgs})
	if err != nil {
		return fmt.Errorf("jobstore: encode batch: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeLocked(appendFrame(s.buf[:0], recBatch, payload)); err != nil {
		return err
	}
	s.live[id] = true
	return nil
}

// AppendPoint journals completed points of batch id with one write, and
// returns once an fsync that began after it has ended: every one of prs,
// and everything appended before them, then survives a crash. A record
// that fails to encode fails the call before anything is written.
func (s *Store) AppendPoint(id string, prs ...PointRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf := s.buf[:0]
	for _, pr := range prs {
		payload, err := json.Marshal(pointRecord{ID: id, PointRecord: pr})
		if err != nil {
			return fmt.Errorf("jobstore: encode point: %w", err)
		}
		buf = appendFrame(buf, recPoint, payload)
	}
	if err := s.writeLocked(buf); err != nil {
		return err
	}
	return s.syncLocked()
}

// Sync returns once an fsync that began after every append so far has
// ended, making batch records and retirements durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	return s.syncLocked()
}

// BatchDone retires batch id without syncing: once the next AppendPoint
// or Sync returns, the batch will not be recovered again. While other
// batches are live that takes a done record; retiring the last live
// batch instead truncates the segment back to its magic header, since
// every record in it belongs to a retired batch.
func (s *Store) BatchDone(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.usableLocked(); err != nil {
		return err
	}
	delete(s.live, id)
	if len(s.live) == 0 {
		if err := s.f.Truncate(int64(len(magic))); err != nil {
			return s.failLocked(fmt.Errorf("jobstore: truncate: %w", err))
		}
		s.wrote++
		return nil
	}
	payload, err := json.Marshal(doneRecord{ID: id})
	if err != nil {
		return fmt.Errorf("jobstore: encode done: %w", err)
	}
	return s.writeLocked(appendFrame(s.buf[:0], recDone, payload))
}

// Close waits for an fsync in flight, syncs what it did not cover, and
// closes the journal; it returns the store's sticky error if it has one.
// Appends after Close return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.syncLocked()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// appendFrame appends one record of type t to buf: the u32 payload
// length, the type byte, the payload, and a CRC-32 over type byte and
// payload.
func appendFrame(buf []byte, t recordType, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	body := len(buf)
	buf = append(append(buf, byte(t)), payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[body:]))
}

// writeLocked writes buf, whole frames, with one write, so a crash tears
// at most this write and replay keeps every whole frame before the tear.
// buf is kept for the next append.
func (s *Store) writeLocked(buf []byte) error {
	if cap(buf) <= maxKeptBuf {
		s.buf = buf[:0]
	}
	if err := s.usableLocked(); err != nil {
		return err
	}
	if _, err := s.f.Write(buf); err != nil {
		return s.failLocked(fmt.Errorf("jobstore: append: %w", err))
	}
	s.wrote++
	return nil
}

// syncLocked returns once an fsync that began after every write so far
// has ended. It waits for an fsync in flight, which covers the caller
// only if it began after the caller's writes; when none runs it starts
// one, releasing mu for its length so other appends go on meanwhile.
func (s *Store) syncLocked() error {
	want := s.wrote
	for s.err == nil && s.synced < want {
		if s.syncing {
			s.syncDone.Wait()
			continue
		}
		f, covers := s.f, s.wrote
		s.syncing = true
		s.mu.Unlock()
		err := s.fsync(f)
		s.mu.Lock()
		s.syncing = false
		if err != nil {
			s.failLocked(fmt.Errorf("jobstore: sync: %w", err))
		} else {
			s.synced = covers
		}
		s.syncDone.Broadcast()
	}
	return s.err
}

// usableLocked reports why the store takes no more appends, if it does
// not: it is closed, or an earlier write failed.
func (s *Store) usableLocked() error {
	if s.closed {
		return ErrClosed
	}
	return s.err
}

// failLocked makes err the store's sticky error (see the package comment)
// unless an earlier failure already is, and returns the sticky error.
func (s *Store) failLocked(err error) error {
	if s.err == nil {
		s.err = err
	}
	return s.err
}

// fsync syncs f and counts it.
func (s *Store) fsync(f *os.File) error {
	s.syncs.Add(1)
	return f.Sync()
}

// rotateLocked writes batches (the live set) into segment n via
// temp+rename, syncs the directory, and opens segment n for appends.
// Callers delete superseded segment files.
func (s *Store) rotateLocked(n int, batches []Batch) error {
	tmp, err := os.CreateTemp(s.dir, "journal-*.tmp")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	var buf []byte
	write := func(t recordType, v any) error {
		payload, err := json.Marshal(v)
		if err != nil {
			return err
		}
		buf = appendFrame(buf[:0], t, payload)
		_, err = tmp.Write(buf)
		return err
	}
	err = func() error {
		if _, err := tmp.Write([]byte(magic)); err != nil {
			return err
		}
		for _, b := range batches {
			if err := write(recBatch, batchRecord{ID: b.ID, Configs: b.Configs}); err != nil {
				return err
			}
			for _, pr := range b.Points {
				if err := write(recPoint, pointRecord{ID: b.ID, PointRecord: pr}); err != nil {
					return err
				}
			}
		}
		return s.fsync(tmp)
	}()
	if err != nil {
		tmp.Close()
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	path := segPath(s.dir, n)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("jobstore: compact: %w", err)
	}
	s.syncDir()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	s.f = f
	return nil
}

// record is one decoded journal frame.
type record struct {
	typ     recordType
	payload []byte
}

// scanRecords walks buf and returns every intact record before the
// first tear. A missing or wrong magic yields nothing; a frame that is
// short, oversized, or fails its CRC ends the scan — replay never
// errors on a torn tail, it recovers the prefix.
func scanRecords(buf []byte) []record {
	if len(buf) < len(magic) || string(buf[:len(magic)]) != magic {
		return nil
	}
	var recs []record
	off := len(magic)
	for {
		if len(buf)-off < frameOverhead {
			return recs
		}
		n := int(binary.LittleEndian.Uint32(buf[off:]))
		if n > maxPayload || len(buf)-off-frameOverhead < n {
			return recs
		}
		body := buf[off+4 : off+5+n] // type byte + payload
		sum := binary.LittleEndian.Uint32(buf[off+5+n:])
		if crc32.ChecksumIEEE(body) != sum {
			return recs
		}
		recs = append(recs, record{typ: recordType(body[0]), payload: body[1:]})
		off += frameOverhead + n
	}
}

type segFile struct {
	n    int
	path string
}

// listSegments returns dir's journal segments sorted by number.
func listSegments(dir string) ([]segFile, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	var segs []segFile
	for _, e := range ents {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "journal-%d.seg", &n); err == nil {
			segs = append(segs, segFile{n: n, path: filepath.Join(dir, e.Name())})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].n < segs[j].n })
	return segs, nil
}

func segPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("journal-%08d.seg", n))
}

// syncDir makes a rename durable on filesystems that need the directory
// flushed; failure is not fatal (the segment itself is synced).
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		s.fsync(d)
		d.Close()
	}
}
