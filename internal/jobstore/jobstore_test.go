package jobstore

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"daosim/internal/core"
)

// testConfigs builds a small deterministic batch payload.
func testConfigs() []core.Config {
	cfg := core.Config{
		Workload:  "easy",
		Nodes:     []int{1, 2},
		Variants:  core.EasyVariants(),
		Seed:      42,
		BlockSize: 1 << 20,
	}
	return []core.Config{cfg}
}

func testPoint(i int) PointRecord {
	return PointRecord{
		Pos: i,
		Point: core.Point{
			Nodes:     i + 1,
			Ranks:     (i + 1) * 16,
			WriteGiBs: float64(i) * 1.25,
			ReadGiBs:  float64(i) * 2.5,
		},
		CacheHit: i%2 == 0,
	}
}

// openT opens dir, failing the test on error.
func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// journalBytes reads the single live segment (after appends, before any
// reopen) so truncation tests can slice it.
func journalBytes(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("got %d segments, want 1", len(segs))
	}
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	return segs[0].path, buf
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	cfgs := testConfigs()
	if err := s.AppendBatch("b1", cfgs); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.AppendPoint("b1", testPoint(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	got := s2.Recovered()
	if len(got) != 1 {
		t.Fatalf("recovered %d batches, want 1", len(got))
	}
	b := got[0]
	if b.ID != "b1" || len(b.Configs) != 1 || len(b.Points) != 3 {
		t.Fatalf("recovered batch = id %q, %d configs, %d points", b.ID, len(b.Configs), len(b.Points))
	}
	if b.Configs[0].Seed != 42 || b.Configs[0].Nodes[1] != 2 {
		t.Fatalf("configs did not round-trip: %+v", b.Configs[0])
	}
	for i, pr := range b.Points {
		want := testPoint(i)
		if pr.Pos != want.Pos || pr.Point != want.Point || pr.CacheHit != want.CacheHit {
			t.Fatalf("point %d did not round-trip: got %+v want %+v", i, pr, want)
		}
	}
}

func TestBatchDoneRetires(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.AppendBatch("b1", testConfigs()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoint("b1", testPoint(0)); err != nil {
		t.Fatal(err)
	}
	syncs := s.Syncs()
	if err := s.BatchDone("b1"); err != nil {
		t.Fatal(err)
	}
	if n := s.Syncs() - syncs; n != 1 {
		t.Fatalf("retiring the last live batch cost %d fsyncs, want 1", n)
	}
	// Retiring the last live batch truncates the segment: the journal is
	// back to just its magic header, before and after a reopen.
	if _, buf := journalBytes(t, dir); string(buf) != magic {
		t.Fatalf("journal after BatchDone is %d bytes, want %d (bare magic)", len(buf), len(magic))
	}
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	if n := len(s2.Recovered()); n != 0 {
		t.Fatalf("recovered %d batches after BatchDone, want 0", n)
	}
	_, buf := journalBytes(t, dir)
	if len(buf) != len(magic) {
		t.Fatalf("idle journal is %d bytes, want %d (bare magic)", len(buf), len(magic))
	}
}

func TestOpenCompactsRetiredHistory(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.AppendBatch("done", testConfigs())
	s.AppendPoint("done", testPoint(0))
	s.AppendBatch("live", testConfigs())
	s.AppendPoint("live", testPoint(1))
	s.BatchDone("done")
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	got := s2.Recovered()
	if len(got) != 1 || got[0].ID != "live" {
		t.Fatalf("recovered %v, want just batch live", got)
	}
	// Compaction rewrote a single segment holding only the live batch:
	// replaying it cold must not resurrect the retired one.
	segs, _ := listSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("got %d segments after compaction, want 1", len(segs))
	}
}

// TestTruncatedTailRecoversPrefix is the crash-mid-append table: the
// journal cut at every byte boundary must recover exactly the records
// whose frames fully landed, and never error. The last append carries
// three records in one write, so cuts inside it must keep its whole
// frames before the cut.
func TestTruncatedTailRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.AppendBatch("b1", testConfigs())
	for i := 0; i < 3; i++ {
		s.AppendPoint("b1", testPoint(i))
	}
	syncs := s.Syncs()
	if err := s.AppendPoint("b1", testPoint(3), testPoint(4), testPoint(5)); err != nil {
		t.Fatal(err)
	}
	if n := s.Syncs() - syncs; n != 1 {
		t.Fatalf("a three-record append cost %d fsyncs, want 1", n)
	}
	s.Close()
	path, full := journalBytes(t, dir)

	// Find the frame boundaries so each cut maps to an expected record
	// count.
	boundaries := []int{len(magic)}
	off := len(magic)
	for off < len(full) {
		n := int(binary.LittleEndian.Uint32(full[off:]))
		off += frameOverhead + n
		boundaries = append(boundaries, off)
	}
	if len(boundaries) != 8 { // magic + 7 records
		t.Fatalf("journal has %d frames, want 7", len(boundaries)-1)
	}
	recordsBefore := func(cut int) int {
		n := 0
		for _, b := range boundaries[1:] {
			if cut >= b {
				n++
			}
		}
		return n
	}

	for cut := 0; cut <= len(full); cut++ {
		work := t.TempDir()
		p := filepath.Join(work, filepath.Base(path))
		if err := os.WriteFile(p, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(work)
		if err != nil {
			t.Fatalf("cut=%d: Open errored: %v (torn tails must recover, not fail)", cut, err)
		}
		want := recordsBefore(cut)
		got := 0
		if bs := s.Recovered(); len(bs) == 1 {
			got = 1 + len(bs[0].Points)
		} else if len(bs) > 1 {
			t.Fatalf("cut=%d: recovered %d batches", cut, len(bs))
		}
		if got != want {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, got, want)
		}
		s.Close()
	}
}

// TestCorruptTailDropsTornRecord flips one byte in the final record's
// frame: the scan must stop at the flip and keep everything before it.
func TestCorruptTailDropsTornRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	s.AppendBatch("b1", testConfigs())
	s.AppendPoint("b1", testPoint(0))
	s.AppendPoint("b1", testPoint(1))
	s.Close()
	path, full := journalBytes(t, dir)

	// Locate the final frame.
	off := len(magic)
	last := off
	for off < len(full) {
		last = off
		n := int(binary.LittleEndian.Uint32(full[off:]))
		off += frameOverhead + n
	}

	for _, flip := range []int{last + 4, last + 6, len(full) - 1} { // type byte, payload, crc
		work := t.TempDir()
		buf := append([]byte(nil), full...)
		buf[flip] ^= 0x40
		if err := os.WriteFile(filepath.Join(work, filepath.Base(path)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(work)
		if err != nil {
			t.Fatalf("flip@%d: Open errored: %v", flip, err)
		}
		bs := s.Recovered()
		if len(bs) != 1 || len(bs[0].Points) != 1 {
			t.Fatalf("flip@%d: recovered %+v, want batch b1 with exactly the first point", flip, bs)
		}
		s.Close()
	}
}

// TestGarbageJournalIsEmptyNotFatal: a journal whose magic is wrong (or
// that is outright noise) recovers nothing and keeps working.
func TestGarbageJournalIsEmptyNotFatal(t *testing.T) {
	for _, junk := range [][]byte{nil, []byte("not a journal"), []byte("daosjnl9xxxxxxxxxxxx")} {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 1), junk, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open on garbage journal errored: %v", err)
		}
		if n := len(s.Recovered()); n != 0 {
			t.Fatalf("recovered %d batches from garbage", n)
		}
		// And the store must still append durably.
		if err := s.AppendBatch("b1", testConfigs()); err != nil {
			t.Fatal(err)
		}
		s.Close()
		s2 := openT(t, dir)
		if n := len(s2.Recovered()); n != 1 {
			t.Fatalf("recovered %d batches after re-append, want 1", n)
		}
		s2.Close()
	}
}

// TestOrphanRecordsSkipped: point/done records whose batch record is
// missing (fell past a tear in an earlier segment) are skipped, not an
// error.
func TestOrphanRecordsSkipped(t *testing.T) {
	dir := t.TempDir()
	frame := func(typ recordType, payload string) []byte {
		b := make([]byte, frameOverhead+len(payload))
		binary.LittleEndian.PutUint32(b, uint32(len(payload)))
		b[4] = byte(typ)
		copy(b[5:], payload)
		binary.LittleEndian.PutUint32(b[5+len(payload):], crc32.ChecksumIEEE(b[4:5+len(payload)]))
		return b
	}
	buf := []byte(magic)
	buf = append(buf, frame(recPoint, `{"id":"ghost","pos":0,"point":{}}`)...)
	buf = append(buf, frame(recDone, `{"id":"ghost"}`)...)
	buf = append(buf, frame(recordType(99), `{"future":"record"}`)...) // unknown type: skipped
	if err := os.WriteFile(segPath(dir, 1), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if n := len(s.Recovered()); n != 0 {
		t.Fatalf("recovered %d batches from orphan records", n)
	}
}

// TestFailedAppendIsSticky: once a write fails, every later append
// returns that first error and writes nothing, even after the disk
// recovers: a record behind a torn frame would never replay. The store
// still recovers exactly what was written before the failure.
func TestFailedAppendIsSticky(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	if err := s.AppendBatch("b1", testConfigs()); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendPoint("b1", testPoint(0)); err != nil {
		t.Fatal(err)
	}
	path, _ := journalBytes(t, dir)
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	good := s.f
	s.f = ro
	first := s.AppendPoint("b1", testPoint(1))
	s.f = good
	if first == nil {
		t.Fatal("an append through a read-only handle succeeded")
	}
	if err := s.AppendPoint("b1", testPoint(2)); err != first {
		t.Fatalf("AppendPoint after a failed write = %v, want the first error %v", err, first)
	}
	if err := s.AppendBatch("b2", testConfigs()); err != first {
		t.Fatalf("AppendBatch after a failed write = %v, want the first error %v", err, first)
	}
	if err := s.BatchDone("b1"); err != first {
		t.Fatalf("BatchDone after a failed write = %v, want the first error %v", err, first)
	}
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	bs := s2.Recovered()
	if len(bs) != 1 || bs[0].ID != "b1" || len(bs[0].Points) != 1 || bs[0].Points[0].Pos != 0 {
		t.Fatalf("recovered %+v, want batch b1 with exactly its first point", bs)
	}
}

func TestAppendAfterCloseErrors(t *testing.T) {
	s := openT(t, t.TempDir())
	s.Close()
	if err := s.AppendBatch("b1", testConfigs()); err != ErrClosed {
		t.Fatalf("AppendBatch after Close = %v, want ErrClosed", err)
	}
	if err := s.AppendPoint("b1", testPoint(0)); err != ErrClosed {
		t.Fatalf("AppendPoint after Close = %v, want ErrClosed", err)
	}
}
