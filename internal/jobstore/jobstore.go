// Package jobstore is daosd's persistent submission journal: a
// checksummed append-only record log that makes study batches survive a
// coordinator crash. The server appends one batch record when a
// submission arrives and one point record as each result lands; on
// restart, Open replays the journal and hands back every batch that has
// not been fully delivered, with its completed points — the server
// re-enqueues only the missing ones and serves the rest without
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
// # Rotation and compaction
//
// Appends go to the newest segment with an fsync per record: once
// AppendBatch or AppendPoint returns, that record survives kill -9.
// Open compacts the live state (batches not yet done) into a fresh
// segment via temp+rename and deletes the older ones, so completed
// batches do not accumulate; BatchDone rotates to an empty segment
// whenever it retires the last live batch, bounding the journal on a
// quiet server to the magic header.
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

// Store is an open journal directory. All methods are safe for
// concurrent use.
type Store struct {
	dir       string
	recovered []Batch

	mu     sync.Mutex
	f      *os.File
	seg    int
	live   map[string]bool
	closed bool
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

// AppendBatch journals a new submission. It must be called before any
// AppendPoint for the same id.
func (s *Store) AppendBatch(id string, cfgs []core.Config) error {
	payload, err := json.Marshal(batchRecord{ID: id, Configs: cfgs})
	if err != nil {
		return fmt.Errorf("jobstore: encode batch: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(recBatch, payload); err != nil {
		return err
	}
	s.live[id] = true
	return nil
}

// AppendPoint journals one completed point of batch id.
func (s *Store) AppendPoint(id string, pr PointRecord) error {
	payload, err := json.Marshal(pointRecord{ID: id, PointRecord: pr})
	if err != nil {
		return fmt.Errorf("jobstore: encode point: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(recPoint, payload)
}

// BatchDone retires batch id: after the done record is durable the
// batch will not be recovered again. When the last live batch retires,
// the journal rotates to a fresh empty segment so retired history does
// not accumulate.
func (s *Store) BatchDone(id string) error {
	payload, err := json.Marshal(doneRecord{ID: id})
	if err != nil {
		return fmt.Errorf("jobstore: encode done: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.appendLocked(recDone, payload); err != nil {
		return err
	}
	delete(s.live, id)
	if len(s.live) == 0 {
		// Best-effort: the done record above is already durable, so a
		// failed rotation only costs replay work on the next Open.
		if err := s.rotateLocked(s.seg+1, nil); err == nil {
			os.Remove(segPath(s.dir, s.seg-1))
		}
	}
	return nil
}

// Close syncs and closes the journal. Appends after Close return
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// frame renders one record of type t: the u32 payload length, the type
// byte, the payload, and a CRC-32 over type byte and payload.
func frame(t recordType, payload []byte) []byte {
	rec := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
	rec[4] = byte(t)
	copy(rec[5:], payload)
	binary.LittleEndian.PutUint32(rec[5+len(payload):], crc32.ChecksumIEEE(rec[4:5+len(payload)]))
	return rec
}

// appendLocked frames and appends one record, fsyncing before return.
// The frame goes down in a single write so a crash tears at most the
// final record — exactly what replay recovers from.
func (s *Store) appendLocked(t recordType, payload []byte) error {
	if s.closed {
		return ErrClosed
	}
	if _, err := s.f.Write(frame(t, payload)); err != nil {
		return fmt.Errorf("jobstore: append: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("jobstore: sync: %w", err)
	}
	return nil
}

// rotateLocked writes batches (the live set) into segment n via
// temp+rename, syncs the directory, and switches appends to it. The old
// append handle is closed; callers delete superseded segment files.
func (s *Store) rotateLocked(n int, batches []Batch) error {
	tmp, err := os.CreateTemp(s.dir, "journal-*.tmp")
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	write := func(t recordType, v any) error {
		payload, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = tmp.Write(frame(t, payload))
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
		return tmp.Sync()
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
	syncDir(s.dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobstore: %w", err)
	}
	if s.f != nil {
		s.f.Close()
	}
	s.f = f
	s.seg = n
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
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
