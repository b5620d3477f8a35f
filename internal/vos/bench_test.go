package vos

import (
	"encoding/binary"
	"testing"
)

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 16)
		binary.BigEndian.PutUint64(k, uint64(i)*2654435761)
		binary.BigEndian.PutUint64(k[8:], uint64(i))
		keys[i] = k
	}
	return keys
}

func BenchmarkBTreePut(b *testing.B) {
	keys := benchKeys(b.N)
	tr := NewBTree()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Put(keys[i], i)
	}
}

func BenchmarkBTreeGet(b *testing.B) {
	const n = 100_000
	keys := benchKeys(n)
	tr := NewBTree()
	for i, k := range keys {
		tr.Put(k, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%n])
	}
}

func BenchmarkBTreeAscend(b *testing.B) {
	const n = 100_000
	tr := NewBTree()
	for i, k := range benchKeys(n) {
		tr.Put(k, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		tr.Ascend(func(k []byte, v interface{}) bool {
			count++
			return count < 1000
		})
	}
}

func BenchmarkExtentInsert(b *testing.B) {
	tr := NewExtentTree()
	data := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(int64(i)*4096, Epoch(i+1), 4096, data)
	}
}

func BenchmarkExtentRead(b *testing.B) {
	tr := NewExtentTree()
	data := make([]byte, 4096)
	const n = 1024
	for i := 0; i < n; i++ {
		tr.Insert(int64(i)*4096, Epoch(i+1), 4096, data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Read(int64(i%n)*4096, 4096, EpochMax)
	}
}

// BenchmarkDataPathReadInto is the zero-copy counterpart of
// BenchmarkExtentRead: the same extent population read into one reused
// buffer. The steady state must not allocate — the overlap scratch is
// retained on the tree and the destination is the caller's — which
// TestReadIntoZeroAlloc pins.
func BenchmarkDataPathReadInto(b *testing.B) {
	tr := NewExtentTree()
	data := make([]byte, 4096)
	const n = 1024
	for i := 0; i < n; i++ {
		tr.Insert(int64(i)*4096, Epoch(i+1), 4096, data)
	}
	dst := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReadInto(dst, int64(i%n)*4096, 4096, EpochMax)
	}
}

func TestReadIntoZeroAlloc(t *testing.T) {
	tr := NewExtentTree()
	data := make([]byte, 4096)
	const n = 16
	for i := 0; i < n; i++ {
		tr.Insert(int64(i)*4096, Epoch(i+1), 4096, data)
	}
	dst := make([]byte, 8192)
	i := 0
	// Unaligned reads straddle two extents, exercising the overlay path;
	// warm-up inside AllocsPerRun grows the scratch once before counting.
	allocs := testing.AllocsPerRun(100, func() {
		off := int64(i%(n-2))*4096 + 123
		tr.ReadInto(dst, off, 8192, EpochMax)
		i++
	})
	if allocs != 0 {
		t.Fatalf("ReadInto allocates %v times per read, want 0", allocs)
	}
}

func BenchmarkContainerUpdateArray(b *testing.B) {
	c := NewContainer("bench")
	data := make([]byte, 1<<20)
	oid := ObjectID{Hi: 1, Lo: 1}
	dk := []byte("chunk.0000000000000000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.UpdateArray(oid, dk, []byte("data"), Epoch(i+1), 0, data[:4096])
	}
}
