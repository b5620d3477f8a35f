package vos

import (
	"errors"
	"sort"
)

// Epoch is a logical timestamp. Updates are tagged with the epoch at which
// they were made; fetches read the state visible at a given epoch.
type Epoch uint64

// EpochMax reads the latest state.
const EpochMax = Epoch(^uint64(0))

// ErrNoContent reports a materializing read to which a length-only extent
// supplies a visible byte: the store knows the byte was written but holds
// no content for it, and a read never answers that with zeros.
var ErrNoContent = errors.New("vos: read of a length-only extent")

// Extent is one versioned write to a byte-array akey: it covers
// [Offset, Offset+Len) as of Epoch. Data holds those Len bytes, or is nil
// for a length-only write, which records only the range and epoch.
type Extent struct {
	Offset int64
	Epoch  Epoch
	Len    int64
	Data   []byte
}

// End returns the first byte offset past the extent.
func (e Extent) End() int64 { return e.Offset + e.Len }

// ExtentTree stores the versioned extents of one array akey, ordered by
// (offset, epoch). It is the simulator's analogue of VOS's evtree. Reads
// resolve overlapping extents by visibility: the highest epoch not past the
// read epoch wins for every byte.
type ExtentTree struct {
	// extents are sorted by Offset, then Epoch. Multiple extents may
	// overlap; MVCC keeps every old version.
	extents []Extent
	// maxEnd caches the high-water mark of written bytes (the array size).
	maxEnd int64
	// scratch holds the visible overlapping set of the read in flight; it is
	// retained so steady-state reads allocate nothing. Trees are confined to
	// one target xstream, so a single buffer suffices.
	scratch []Extent
}

// NewExtentTree returns an empty tree.
func NewExtentTree() *ExtentTree { return &ExtentTree{} }

// Len returns the number of stored extents.
func (t *ExtentTree) Len() int { return len(t.extents) }

// Size returns the high-water mark: one past the last written byte.
func (t *ExtentTree) Size() int64 { return t.maxEnd }

// Insert records a write of n bytes at offset with the given epoch. data
// is nil for a length-only write, or else n bytes long; the tree keeps data
// itself, not a copy: the caller must not modify it after the call.
func (t *ExtentTree) Insert(offset int64, epoch Epoch, n int64, data []byte) {
	if data != nil && int64(len(data)) != n {
		panic("vos: Insert data length mismatch")
	}
	if n <= 0 {
		return
	}
	e := Extent{Offset: offset, Epoch: epoch, Len: n, Data: data}
	i := sort.Search(len(t.extents), func(i int) bool {
		x := t.extents[i]
		return x.Offset > e.Offset || (x.Offset == e.Offset && x.Epoch > e.Epoch)
	})
	t.extents = append(t.extents, Extent{})
	copy(t.extents[i+1:], t.extents[i:])
	t.extents[i] = e
	if e.End() > t.maxEnd {
		t.maxEnd = e.End()
	}
}

// Read resolves the bytes of [offset, offset+length) visible at epoch.
// Unwritten bytes read as zero (holes). The second result reports how many
// bytes at the start of the range were actually covered by writes visible at
// the epoch (0 when the whole range is a hole). A visible byte whose newest
// write is length-only fails the read with ErrNoContent.
//
// The data path reads through ReadInto; Read returns a fresh buffer and is
// the reference the tests hold ReadInto to. Both avoid the naive
// mark-a-bool-per-byte formulation: the covered prefix comes from an
// interval walk over the (offset-ordered) visible extents, the overlap scan
// stops at the binary-searched first extent starting past the range, and a
// read fully covered by a single extent copies it without first zeroing a
// buffer. Results are byte-for-byte those of the straightforward overlay.
func (t *ExtentTree) Read(offset int64, length int, epoch Epoch) ([]byte, int64, error) {
	end := offset + int64(length)
	overlapping, covered := t.visible(offset, end, epoch)

	// A range fully covered by one extent — the common case for aligned
	// IOR-style transfers — is a straight copy: append allocates without
	// zeroing, where make([]byte, length) would clear the buffer only to
	// overwrite every byte.
	if len(overlapping) == 1 {
		if e := overlapping[0]; e.Offset <= offset && e.End() >= end {
			if e.Data == nil {
				return nil, covered, ErrNoContent
			}
			return append([]byte(nil), e.Data[offset-e.Offset:end-e.Offset]...), covered, nil
		}
	}

	buf := make([]byte, length)
	if err := t.overlay(buf, overlapping, offset, end); err != nil {
		return nil, covered, err
	}
	return buf, covered, nil
}

// ReadInto resolves the bytes of [offset, offset+length) visible at epoch
// into dst, which must be length bytes long; every byte of dst is written
// (holes as zeros), so callers can reuse buffers across reads. A nil dst
// performs the identical visibility walk without materializing any bytes —
// the geometry-only mode backing no-materialize reads, whose covered result
// and cost are byte-identical to the materializing call, and which never
// fails. The return value is Read's covered-prefix length; like Read, a
// non-nil dst fails with ErrNoContent when a length-only extent supplies
// any visible byte. Only the holes are cleared: the overlay rewrites every
// byte a visible extent covers. Steady-state calls allocate nothing.
func (t *ExtentTree) ReadInto(dst []byte, offset int64, length int, epoch Epoch) (int64, error) {
	if dst != nil && len(dst) != length {
		panic("vos: ReadInto dst length mismatch")
	}
	end := offset + int64(length)
	overlapping, covered := t.visible(offset, end, epoch)
	if dst == nil {
		return covered, nil
	}
	clearHoles(dst, overlapping, offset, end)
	return covered, t.overlay(dst, overlapping, offset, end)
}

// clearHoles zeroes the bytes of buf (whose origin is offset) that no
// extent of overlapping, in offset order, covers: the gaps of the same
// interval walk that finds visible's covered prefix.
func clearHoles(buf []byte, overlapping []Extent, offset, end int64) {
	frontier := offset
	for _, e := range overlapping {
		if e.Offset > frontier {
			clear(buf[frontier-offset : e.Offset-offset])
		}
		frontier = max(frontier, e.End())
	}
	if frontier < end {
		clear(buf[frontier-offset:])
	}
}

// visible collects the extents overlapping [offset, end) that are visible at
// epoch, in offset order, into the tree's scratch buffer, and returns them
// with the covered-prefix length. The scratch slice is only valid until the
// next visible call.
func (t *ExtentTree) visible(offset, end int64, epoch Epoch) ([]Extent, int64) {
	// No extent with Offset >= end can overlap; extents are offset-sorted,
	// so everything at or past this index is irrelevant.
	stop := sort.Search(len(t.extents), func(i int) bool { return t.extents[i].Offset >= end })
	overlapping := t.scratch[:0]
	for _, e := range t.extents[:stop] {
		if e.Epoch > epoch || e.End() <= offset {
			continue
		}
		overlapping = append(overlapping, e)
	}
	t.scratch = overlapping
	// The covered prefix is an interval union walk: extents arrive in
	// offset order, so the prefix extends while each next extent starts at
	// or before the current frontier.
	prefix := offset
	for _, e := range overlapping {
		if e.Offset > prefix {
			break
		}
		if e.End() > prefix {
			prefix = e.End()
		}
	}
	if prefix > end {
		prefix = end
	}
	return overlapping, prefix - offset
}

// overlay copies the range intersection of each extent into buf (whose
// origin is offset). Overlap resolution must be epoch-ordered (the highest
// epoch wins for every byte), so the overlapping set is sorted by epoch
// first; the insertion sort is stable, keeping equal-epoch extents in offset
// order — exactly the order the (offset, epoch)-sorted tree would overlay
// them in — and allocation-free, unlike sort.SliceStable. In that order a
// byte's newest write is the last extent covering it, so a length-only
// extent supplies a visible byte exactly when the extents after it leave
// part of its range uncovered; that fails with ErrNoContent.
func (t *ExtentTree) overlay(buf []byte, overlapping []Extent, offset, end int64) error {
	for i := 1; i < len(overlapping); i++ {
		e := overlapping[i]
		j := i
		for j > 0 && overlapping[j-1].Epoch > e.Epoch {
			overlapping[j] = overlapping[j-1]
			j--
		}
		overlapping[j] = e
	}
	for i, e := range overlapping {
		lo := e.Offset
		if lo < offset {
			lo = offset
		}
		hi := e.End()
		if hi > end {
			hi = end
		}
		if e.Data == nil {
			if !shadowed(overlapping[i+1:], lo, hi) {
				return ErrNoContent
			}
			continue
		}
		copy(buf[lo-offset:hi-offset], e.Data[lo-e.Offset:hi-e.Offset])
	}
	return nil
}

// shadowed reports whether the union of the later extents covers [lo, hi).
func shadowed(later []Extent, lo, hi int64) bool {
	for lo < hi {
		next := lo
		for _, e := range later {
			if e.Offset <= lo && e.End() > next {
				next = e.End()
			}
		}
		if next == lo {
			return false
		}
		lo = next
	}
	return true
}

// VisibleSize returns one past the last byte visible at epoch.
func (t *ExtentTree) VisibleSize(epoch Epoch) int64 {
	var size int64
	for _, e := range t.extents {
		if e.Epoch <= epoch && e.End() > size {
			size = e.End()
		}
	}
	return size
}
