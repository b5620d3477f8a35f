package vos

import "sort"

// Epoch is a logical timestamp. Updates are tagged with the epoch at which
// they were made; fetches read the state visible at a given epoch.
type Epoch uint64

// EpochMax reads the latest state.
const EpochMax = Epoch(^uint64(0))

// Extent is one versioned write to a byte-array akey: Data covers
// [Offset, Offset+len(Data)) as of Epoch.
type Extent struct {
	Offset int64
	Epoch  Epoch
	Data   []byte
}

// End returns the first byte offset past the extent.
func (e Extent) End() int64 { return e.Offset + int64(len(e.Data)) }

// ExtentTree stores the versioned extents of one array akey, ordered by
// (offset, epoch). It is the simulator's analogue of VOS's evtree. Reads
// resolve overlapping extents by visibility: the highest epoch not past the
// read epoch wins for every byte.
type ExtentTree struct {
	// extents are sorted by Offset, then Epoch. Multiple extents may
	// overlap; MVCC keeps old versions until Aggregate.
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

// Insert records a write of data at offset with the given epoch. The tree
// keeps data itself, not a copy: the caller must not modify it after the
// call.
func (t *ExtentTree) Insert(offset int64, epoch Epoch, data []byte) {
	if len(data) == 0 {
		return
	}
	e := Extent{Offset: offset, Epoch: epoch, Data: data}
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
// the epoch (0 when the whole range is a hole).
//
// This is the hottest path of the whole simulator — every simulated fetch
// lands here with transfer-sized ranges — so it avoids the naive
// mark-a-bool-per-byte formulation: the covered prefix comes from an
// interval walk over the (offset-ordered) visible extents, the overlap scan
// stops at the binary-searched first extent starting past the range, and a
// read fully covered by a single extent copies it without first zeroing a
// buffer. Results are byte-for-byte those of the straightforward overlay.
func (t *ExtentTree) Read(offset int64, length int, epoch Epoch) ([]byte, int64) {
	end := offset + int64(length)
	overlapping, covered := t.visible(offset, end, epoch)

	// A range fully covered by one extent — the common case for aligned
	// IOR-style transfers — is a straight copy: append allocates without
	// zeroing, where make([]byte, length) would clear the buffer only to
	// overwrite every byte.
	if len(overlapping) == 1 {
		if e := overlapping[0]; e.Offset <= offset && e.End() >= end {
			return append([]byte(nil), e.Data[offset-e.Offset:end-e.Offset]...), covered
		}
	}

	buf := make([]byte, length)
	t.overlay(buf, overlapping, offset, end)
	return buf, covered
}

// ReadInto resolves the bytes of [offset, offset+length) visible at epoch
// into dst, which must be length bytes long; every byte of dst is written
// (holes as zeros), so callers can reuse buffers across reads. A nil dst
// performs the identical visibility walk without materializing any bytes —
// the geometry-only mode backing no-materialize reads, whose covered result
// and cost are byte-identical to the materializing call. The return value is
// Read's covered-prefix length. Steady-state calls allocate nothing.
func (t *ExtentTree) ReadInto(dst []byte, offset int64, length int, epoch Epoch) int64 {
	if dst != nil && len(dst) != length {
		panic("vos: ReadInto dst length mismatch")
	}
	end := offset + int64(length)
	overlapping, covered := t.visible(offset, end, epoch)
	if dst == nil {
		return covered
	}
	// A range fully covered by one extent needs no pre-zeroing: the copy
	// overwrites every destination byte.
	if len(overlapping) == 1 {
		if e := overlapping[0]; e.Offset <= offset && e.End() >= end {
			copy(dst, e.Data[offset-e.Offset:end-e.Offset])
			return covered
		}
	}
	clear(dst)
	t.overlay(dst, overlapping, offset, end)
	return covered
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
// them in — and allocation-free, unlike sort.SliceStable.
func (t *ExtentTree) overlay(buf []byte, overlapping []Extent, offset, end int64) {
	for i := 1; i < len(overlapping); i++ {
		e := overlapping[i]
		j := i
		for j > 0 && overlapping[j-1].Epoch > e.Epoch {
			overlapping[j] = overlapping[j-1]
			j--
		}
		overlapping[j] = e
	}
	for _, e := range overlapping {
		lo := e.Offset
		if lo < offset {
			lo = offset
		}
		hi := e.End()
		if hi > end {
			hi = end
		}
		copy(buf[lo-offset:hi-offset], e.Data[lo-e.Offset:hi-e.Offset])
	}
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

// Aggregate merges history at or below epoch into a flat, non-overlapping
// set of extents stamped with the aggregation epoch, discarding shadowed
// versions. Extents newer than epoch are preserved untouched. It returns the
// number of bytes of old version data reclaimed.
func (t *ExtentTree) Aggregate(epoch Epoch) int64 {
	var old, newer []Extent
	var oldBytes int64
	for _, e := range t.extents {
		if e.Epoch <= epoch {
			old = append(old, e)
			oldBytes += int64(len(e.Data))
		} else {
			newer = append(newer, e)
		}
	}
	if len(old) == 0 {
		return 0
	}
	// Flatten the visible image of the old extents into runs.
	lo, hi := old[0].Offset, old[0].End()
	for _, e := range old[1:] {
		if e.Offset < lo {
			lo = e.Offset
		}
		if e.End() > hi {
			hi = e.End()
		}
	}
	img, _ := t.readFrom(old, lo, int(hi-lo), epoch)
	written := make([]bool, hi-lo)
	for _, e := range old {
		for i := e.Offset; i < e.End(); i++ {
			written[i-lo] = true
		}
	}
	var flat []Extent
	var keptBytes int64
	i := 0
	for i < len(written) {
		if !written[i] {
			i++
			continue
		}
		j := i
		for j < len(written) && written[j] {
			j++
		}
		flat = append(flat, Extent{
			Offset: lo + int64(i),
			Epoch:  epoch,
			Data:   append([]byte(nil), img[i:j]...),
		})
		keptBytes += int64(j - i)
		i = j
	}
	merged := append(flat, newer...)
	sort.SliceStable(merged, func(a, b int) bool {
		if merged[a].Offset != merged[b].Offset {
			return merged[a].Offset < merged[b].Offset
		}
		return merged[a].Epoch < merged[b].Epoch
	})
	t.extents = merged
	return oldBytes - keptBytes
}

// readFrom is Read over an explicit extent set (used by Aggregate).
func (t *ExtentTree) readFrom(extents []Extent, offset int64, length int, epoch Epoch) ([]byte, int64) {
	saved := t.extents
	t.extents = extents
	buf, covered := t.Read(offset, length, epoch)
	t.extents = saved
	return buf, covered
}

// Extents returns a copy of the extent list (for inspection and tests).
func (t *ExtentTree) Extents() []Extent {
	return append([]Extent(nil), t.extents...)
}
