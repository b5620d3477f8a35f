package vos

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestExtentSimpleRoundTrip(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, []byte("hello"))
	got, covered := tr.Read(0, 5, EpochMax)
	if string(got) != "hello" || covered != 5 {
		t.Fatalf("read = %q covered=%d", got, covered)
	}
	if tr.Size() != 5 {
		t.Fatalf("size = %d", tr.Size())
	}
}

func TestExtentHolesReadZero(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(10, 1, []byte("abc"))
	got, covered := tr.Read(5, 10, EpochMax)
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
	tr.Insert(0, 1, []byte("aaaaaa"))
	tr.Insert(2, 5, []byte("BB"))
	got, _ := tr.Read(0, 6, EpochMax)
	if string(got) != "aaBBaa" {
		t.Fatalf("latest read = %q, want aaBBaa", got)
	}
	// Reading at epoch 1 sees the original.
	got, _ = tr.Read(0, 6, 1)
	if string(got) != "aaaaaa" {
		t.Fatalf("epoch-1 read = %q, want aaaaaa", got)
	}
	// Reading at epoch 4 (before the overwrite) also sees the original.
	got, _ = tr.Read(0, 6, 4)
	if string(got) != "aaaaaa" {
		t.Fatalf("epoch-4 read = %q", got)
	}
}

func TestExtentInterleavedEpochOrder(t *testing.T) {
	// Writes at offsets out of order, epochs out of order with offsets:
	// resolution must always honour epoch, not insertion or offset order.
	tr := NewExtentTree()
	tr.Insert(4, 3, []byte("CCCC"))
	tr.Insert(0, 1, []byte("aaaaaaaa"))
	tr.Insert(2, 2, []byte("bbbb"))
	got, _ := tr.Read(0, 8, EpochMax)
	if string(got) != "aabbCCCC" {
		t.Fatalf("read = %q, want aabbCCCC", got)
	}
}

func TestExtentVisibleSize(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, []byte("xxxx"))
	tr.Insert(100, 5, []byte("y"))
	if got := tr.VisibleSize(1); got != 4 {
		t.Fatalf("VisibleSize(1) = %d, want 4", got)
	}
	if got := tr.VisibleSize(EpochMax); got != 101 {
		t.Fatalf("VisibleSize(max) = %d, want 101", got)
	}
}

// TestExtentMatchesReferenceBuffer is the core property test: any write
// sequence read back at the latest epoch equals a flat reference buffer.
func TestExtentMatchesReferenceBuffer(t *testing.T) {
	type write struct {
		Offset uint16
		Len    uint8
		Fill   byte
	}
	f := func(writes []write) bool {
		const space = 1 << 12
		tr := NewExtentTree()
		ref := make([]byte, space)
		var maxEnd int64
		for i, w := range writes {
			off := int64(w.Offset % (space / 2))
			l := int(w.Len%64) + 1
			data := bytes.Repeat([]byte{w.Fill}, l)
			tr.Insert(off, Epoch(i+1), data)
			copy(ref[off:off+int64(l)], data)
			if off+int64(l) > maxEnd {
				maxEnd = off + int64(l)
			}
		}
		got, _ := tr.Read(0, space, EpochMax)
		if !bytes.Equal(got, ref) {
			return false
		}
		return tr.VisibleSize(EpochMax) == maxEnd
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// FuzzReadIntoMatchesRead pins the zero-copy contract: for any write
// sequence and any read window, ReadInto fills the caller's buffer with
// exactly the bytes the allocating Read returns (holes as zeros, even over a
// dirty reused buffer), reports the identical covered prefix, and a nil
// destination reports that same prefix while writing nothing.
func FuzzReadIntoMatchesRead(f *testing.F) {
	f.Add([]byte{0, 0, 8, 'a', 1, 0, 4, 'b'}, uint16(0), uint16(16))
	f.Add([]byte{0, 64, 32, 'x'}, uint16(60), uint16(100))
	f.Add([]byte{}, uint16(5), uint16(9))
	f.Fuzz(func(t *testing.T, writes []byte, offRaw, lenRaw uint16) {
		const space = 1 << 12
		tr := NewExtentTree()
		for i := 0; i+3 < len(writes); i += 4 {
			off := int64(writes[i])<<4 | int64(writes[i+1])>>4
			l := int(writes[i+2]%64) + 1
			tr.Insert(off, Epoch(i/4+1), bytes.Repeat([]byte{writes[i+3]}, l))
		}
		off := int64(offRaw % space)
		length := int(lenRaw%512) + 1

		want, wantCovered := tr.Read(off, length, EpochMax)
		dst := bytes.Repeat([]byte{0xee}, length) // dirty, as a reused buffer would be
		gotCovered := tr.ReadInto(dst, off, length, EpochMax)
		if !bytes.Equal(dst, want) {
			t.Fatalf("ReadInto([%d,%d)) = %v, Read = %v", off, off+int64(length), dst, want)
		}
		if gotCovered != wantCovered {
			t.Fatalf("ReadInto covered = %d, Read covered = %d", gotCovered, wantCovered)
		}
		if discard := tr.ReadInto(nil, off, length, EpochMax); discard != wantCovered {
			t.Fatalf("discard ReadInto covered = %d, want %d", discard, wantCovered)
		}
	})
}

// TestExtentInsertKeepsData pins the zero-copy write contract: the tree
// stores the caller's slice itself, so an insert of any size allocates
// nothing beyond the extent index.
func TestExtentInsertKeepsData(t *testing.T) {
	tr := NewExtentTree()
	buf := []byte("orig")
	tr.Insert(0, 1, buf)
	if got := tr.extents[0].Data; &got[0] != &buf[0] || len(got) != len(buf) {
		t.Fatal("extent does not share the caller's backing array")
	}

	data := make([]byte, 2<<20)
	tr = NewExtentTree()
	tr.extents = make([]Extent, 0, 128) // room for every run: count Insert alone
	epoch := Epoch(0)
	if allocs := testing.AllocsPerRun(100, func() {
		epoch++
		tr.Insert(0, epoch, data)
	}); allocs != 0 {
		t.Fatalf("2 MiB Insert allocates %v times per call, want 0", allocs)
	}
}

func TestExtentEmptyInsertIgnored(t *testing.T) {
	tr := NewExtentTree()
	tr.Insert(0, 1, nil)
	if tr.Len() != 0 || tr.Size() != 0 {
		t.Fatal("empty insert stored an extent")
	}
}
