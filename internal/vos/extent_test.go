package vos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// put inserts a content write of data at off.
func put(tr *ExtentTree, off int64, epoch Epoch, data []byte) {
	tr.Insert(off, epoch, int64(len(data)), data)
}

// mustRead is Read for trees that hold content only.
func mustRead(t *testing.T, tr *ExtentTree, off int64, n int, epoch Epoch) ([]byte, int64) {
	t.Helper()
	got, covered, err := tr.Read(off, n, epoch)
	if err != nil {
		t.Fatalf("Read([%d,%d)) @%d: %v", off, off+int64(n), epoch, err)
	}
	return got, covered
}

func TestExtentSimpleRoundTrip(t *testing.T) {
	tr := NewExtentTree()
	put(tr, 0, 1, []byte("hello"))
	got, covered := mustRead(t, tr, 0, 5, EpochMax)
	if string(got) != "hello" || covered != 5 {
		t.Fatalf("read = %q covered=%d", got, covered)
	}
	if tr.Size() != 5 {
		t.Fatalf("size = %d", tr.Size())
	}
}

func TestExtentHolesReadZero(t *testing.T) {
	tr := NewExtentTree()
	put(tr, 10, 1, []byte("abc"))
	got, covered := mustRead(t, tr, 5, 10, EpochMax)
	want := append(make([]byte, 5), 'a', 'b', 'c', 0, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("read = %v, want %v", got, want)
	}
	if covered != 0 {
		t.Fatalf("covered = %d, want 0 (range starts in a hole)", covered)
	}
}

func TestExtentOverwriteNewerEpochWins(t *testing.T) {
	tr := NewExtentTree()
	put(tr, 0, 1, []byte("aaaaaa"))
	put(tr, 2, 5, []byte("BB"))
	got, _ := mustRead(t, tr, 0, 6, EpochMax)
	if string(got) != "aaBBaa" {
		t.Fatalf("latest read = %q, want aaBBaa", got)
	}
	// Reading at epoch 1 sees the original.
	got, _ = mustRead(t, tr, 0, 6, 1)
	if string(got) != "aaaaaa" {
		t.Fatalf("epoch-1 read = %q, want aaaaaa", got)
	}
	// Reading at epoch 4 (before the overwrite) also sees the original.
	got, _ = mustRead(t, tr, 0, 6, 4)
	if string(got) != "aaaaaa" {
		t.Fatalf("epoch-4 read = %q", got)
	}
}

func TestExtentInterleavedEpochOrder(t *testing.T) {
	// Writes at offsets out of order, epochs out of order with offsets:
	// resolution must always honour epoch, not insertion or offset order.
	tr := NewExtentTree()
	put(tr, 4, 3, []byte("CCCC"))
	put(tr, 0, 1, []byte("aaaaaaaa"))
	put(tr, 2, 2, []byte("bbbb"))
	got, _ := mustRead(t, tr, 0, 8, EpochMax)
	if string(got) != "aabbCCCC" {
		t.Fatalf("read = %q, want aabbCCCC", got)
	}
}

func TestExtentVisibleSize(t *testing.T) {
	tr := NewExtentTree()
	put(tr, 0, 1, []byte("xxxx"))
	put(tr, 100, 5, []byte("y"))
	if got := tr.VisibleSize(1); got != 4 {
		t.Fatalf("VisibleSize(1) = %d, want 4", got)
	}
	if got := tr.VisibleSize(EpochMax); got != 101 {
		t.Fatalf("VisibleSize(max) = %d, want 101", got)
	}
}

// reference is a flat model of an extent tree read at the latest epoch:
// each byte's newest content, whether it was written at all, and whether
// its newest write was length-only.
type reference struct {
	data, written, noContent []byte
}

func newReference(space int) *reference {
	return &reference{data: make([]byte, space), written: make([]byte, space), noContent: make([]byte, space)}
}

// write records a write of l bytes of fill at off, length-only or not.
func (r *reference) write(off int64, l int, fill byte, lengthOnly bool) {
	for i := off; i < off+int64(l); i++ {
		r.data[i], r.written[i], r.noContent[i] = fill, 1, 0
		if lengthOnly {
			r.noContent[i] = 1
		}
	}
}

// window returns the reference answer for [off, off+n): its bytes, its
// covered prefix, and whether a materializing read must fail.
func (r *reference) window(off int64, n int) (data []byte, covered int64, fails bool) {
	w := r.written[off : off+int64(n)]
	for covered < int64(n) && w[covered] == 1 {
		covered++
	}
	return r.data[off : off+int64(n)], covered, bytes.IndexByte(r.noContent[off:off+int64(n)], 1) >= 0
}

// checkWindow compares every read form of tr over [off, off+n) with ref:
// Read and ReadInto fail with ErrNoContent exactly when a length-only byte
// is visible and otherwise return ref's bytes (holes as zeros, even over a
// dirty reused buffer); all three forms report ref's covered prefix, and a
// nil destination never fails.
func checkWindow(tr *ExtentTree, ref *reference, off int64, n int) error {
	want, wantCovered, fails := ref.window(off, n)
	got, covered, err := tr.Read(off, n, EpochMax)
	if fails != errors.Is(err, ErrNoContent) || (!fails && err != nil) {
		return fmt.Errorf("Read([%d,%d)) err = %v, want failure %v", off, off+int64(n), err, fails)
	}
	if !fails && !bytes.Equal(got, want) {
		return fmt.Errorf("Read([%d,%d)) = %v, want %v", off, off+int64(n), got, want)
	}
	dst := bytes.Repeat([]byte{0xee}, n) // dirty, as a reused buffer would be
	intoCovered, err := tr.ReadInto(dst, off, n, EpochMax)
	if fails != errors.Is(err, ErrNoContent) || (!fails && err != nil) {
		return fmt.Errorf("ReadInto([%d,%d)) err = %v, want failure %v", off, off+int64(n), err, fails)
	}
	if !fails && !bytes.Equal(dst, want) {
		return fmt.Errorf("ReadInto([%d,%d)) = %v, want %v", off, off+int64(n), dst, want)
	}
	nilCovered, err := tr.ReadInto(nil, off, n, EpochMax)
	if err != nil {
		return fmt.Errorf("nil-dst ReadInto([%d,%d)): %v", off, off+int64(n), err)
	}
	if covered != wantCovered || intoCovered != wantCovered || nilCovered != wantCovered {
		return fmt.Errorf("covered [%d,%d): Read %d, ReadInto %d, nil dst %d, want %d",
			off, off+int64(n), covered, intoCovered, nilCovered, wantCovered)
	}
	return nil
}

// TestExtentMatchesReferenceBuffer is the core property test: any sequence
// of content and length-only writes read back at the latest epoch matches
// a flat reference buffer, over the whole space and over every write's own
// range. A length-only write fails a materializing read exactly when one of
// its bytes is still visible.
func TestExtentMatchesReferenceBuffer(t *testing.T) {
	type write struct {
		Offset     uint16
		Len        uint8
		Fill       byte
		LengthOnly bool
	}
	f := func(writes []write) bool {
		const space = 1 << 12
		tr := NewExtentTree()
		ref := newReference(space)
		var maxEnd int64
		for i, w := range writes {
			off := int64(w.Offset % (space / 2))
			l := int(w.Len%64) + 1
			var data []byte
			if !w.LengthOnly {
				data = bytes.Repeat([]byte{w.Fill}, l)
			}
			tr.Insert(off, Epoch(i+1), int64(l), data)
			ref.write(off, l, w.Fill, w.LengthOnly)
			if off+int64(l) > maxEnd {
				maxEnd = off + int64(l)
			}
		}
		if err := checkWindow(tr, ref, 0, space); err != nil {
			t.Log(err)
			return false
		}
		for _, w := range writes {
			if err := checkWindow(tr, ref, int64(w.Offset%(space/2)), int(w.Len%64)+1); err != nil {
				t.Log(err)
				return false
			}
		}
		return tr.VisibleSize(EpochMax) == maxEnd
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestLengthOnlyShadowedByContent pins the MVCC rule a length-only write
// follows: only its still-visible bytes fail a materializing read, at
// every epoch.
func TestLengthOnlyShadowedByContent(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, 8, nil)
	put(tr, 0, 2, []byte("abcd"))
	if got, _ := mustRead(t, tr, 0, 4, EpochMax); string(got) != "abcd" {
		t.Fatalf("shadowed read = %q", got)
	}
	for _, rd := range []struct {
		off   int64
		n     int
		epoch Epoch
	}{{0, 8, EpochMax}, {3, 2, EpochMax}, {0, 4, 1}} {
		if _, _, err := tr.Read(rd.off, rd.n, rd.epoch); !errors.Is(err, ErrNoContent) {
			t.Errorf("Read([%d,%d)) @%d err = %v, want ErrNoContent", rd.off, rd.off+int64(rd.n), rd.epoch, err)
		}
	}
	put(tr, 4, 3, []byte("efgh"))
	if got, _ := mustRead(t, tr, 0, 8, EpochMax); string(got) != "abcdefgh" {
		t.Fatalf("fully shadowed read = %q", got)
	}
	if covered, err := tr.ReadInto(nil, 0, 8, 1); err != nil || covered != 8 {
		t.Fatalf("nil-dst read @1 = %d, %v", covered, err)
	}
}

// FuzzReadIntoMatchesRead pins the zero-copy contract against the flat
// reference: for any sequence of content and length-only writes (a zero
// fill byte marks a length-only one) and any read window, Read and
// ReadInto return the reference's bytes, or both fail with ErrNoContent
// when a length-only byte is visible, and every form, a nil destination
// included, reports the reference's covered prefix.
func FuzzReadIntoMatchesRead(f *testing.F) {
	f.Add([]byte{0, 0, 8, 'a', 1, 0, 4, 'b'}, uint16(0), uint16(16))
	f.Add([]byte{0, 64, 32, 'x'}, uint16(60), uint16(100))
	f.Add([]byte{}, uint16(5), uint16(9))
	f.Add([]byte{0, 0, 16, 0, 0, 0, 8, 'c'}, uint16(0), uint16(8))
	f.Add([]byte{0, 0, 16, 0, 0, 0, 8, 'c'}, uint16(4), uint16(8))
	f.Fuzz(func(t *testing.T, writes []byte, offRaw, lenRaw uint16) {
		const space = 1 << 12
		tr := NewExtentTree()
		ref := newReference(space + 512)
		for i := 0; i+3 < len(writes); i += 4 {
			off := int64(writes[i])<<4 | int64(writes[i+1])>>4
			l := int(writes[i+2]%64) + 1
			var data []byte
			if writes[i+3] != 0 {
				data = bytes.Repeat([]byte{writes[i+3]}, l)
			}
			tr.Insert(off, Epoch(i/4+1), int64(l), data)
			ref.write(off, l, writes[i+3], data == nil)
		}
		if err := checkWindow(tr, ref, int64(offRaw%space), int(lenRaw%512)+1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExtentInsertKeepsData pins the zero-copy write contract: the tree
// stores the caller's slice itself, so an insert of any size allocates
// nothing beyond the extent index.
func TestExtentInsertKeepsData(t *testing.T) {
	tr := NewExtentTree()
	buf := []byte("orig")
	put(tr, 0, 1, buf)
	if got := tr.extents[0].Data; &got[0] != &buf[0] || len(got) != len(buf) {
		t.Fatal("extent does not share the caller's backing array")
	}

	data := make([]byte, 2<<20)
	tr = NewExtentTree()
	tr.extents = make([]Extent, 0, 128) // room for every run: count Insert alone
	epoch := Epoch(0)
	if allocs := testing.AllocsPerRun(100, func() {
		epoch++
		put(tr, 0, epoch, data)
	}); allocs != 0 {
		t.Fatalf("2 MiB Insert allocates %v times per call, want 0", allocs)
	}
}

func TestExtentEmptyInsertIgnored(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, 0, nil)
	put(tr, 0, 2, []byte{})
	if tr.Len() != 0 || tr.Size() != 0 {
		t.Fatal("empty insert stored an extent")
	}
}
