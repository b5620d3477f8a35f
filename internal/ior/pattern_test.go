package ior

import (
	"bytes"
	"encoding/binary"
	"testing"

	"daosim/internal/sim"
)

// patternRef is the word loop pattern replaced, kept as the oracle: it
// writes the whole words of buf and leaves a shorter tail untouched.
func patternRef(buf []byte, srcRank int, absOff int64) {
	seed := uint64(srcRank)*0x9E3779B97F4A7C15 + 0x1234567
	for i := 0; i+8 <= len(buf); i += 8 {
		w := seed ^ mix(uint64(absOff+int64(i)))
		binary.LittleEndian.PutUint64(buf[i:], w)
	}
}

// refTransfer is what a verified transfer of n bytes at absOff holds: the
// oracle's words over n rounded up to a whole word, cut to n bytes, so a
// tail holds the low bytes of the word at its offset.
func refTransfer(n int, srcRank int, absOff int64) []byte {
	buf := make([]byte, (n+7)&^7)
	patternRef(buf, srcRank, absOff)
	return buf[:n]
}

// patternOffsets are transfer offsets on both sides of 2^33, below which
// mix's first xor-shift is the identity, and across the boundary.
var patternOffsets = []int64{0, 4096, 1004 * 37, 1<<33 - 64<<10, 1<<33 - 5, 1 << 33, 1<<33 + 3, 1<<40 + 1004}

// TestPatternMatchesReference holds the fill and the fused check to the
// oracle, word for word, over random ranks and lengths with and without a
// tail, at offsets on both sides of 2^33.
func TestPatternMatchesReference(t *testing.T) {
	rng := sim.NewRNG(32)
	for iter := 0; iter < 400; iter++ {
		rank := rng.Intn(1 << 16)
		n := rng.Intn(3 << 10)
		if iter%4 == 0 {
			n &^= 7 // whole words, no tail
		}
		off := patternOffsets[iter%len(patternOffsets)] + int64(rng.Intn(64))
		want := refTransfer(n, rank, off)
		got := bytes.Repeat([]byte{0xee}, n)
		pattern(got, rank, off)
		if !bytes.Equal(got, want) {
			t.Fatalf("rank %d, %d bytes at %d: fill differs from the oracle", rank, n, off)
		}
		if !hasPattern(want, rank, off) {
			t.Fatalf("rank %d, %d bytes at %d: check rejects the oracle's bytes", rank, n, off)
		}
	}
}

// TestHasPatternCatchesEveryByte flips each byte of a transfer in turn,
// tail included: every flip must fail the check, as must the right bytes
// checked for another rank or offset.
func TestHasPatternCatchesEveryByte(t *testing.T) {
	for _, n := range []int{1, 7, 8, 61, 1004} {
		for _, off := range patternOffsets {
			buf := make([]byte, n)
			pattern(buf, 5, off)
			if !hasPattern(buf, 5, off) {
				t.Fatalf("%d bytes at %d: check rejects its own fill", n, off)
			}
			if hasPattern(buf, 6, off) || hasPattern(buf, 5, off+8) {
				t.Fatalf("%d bytes at %d: check accepts another rank's or offset's pattern", n, off)
			}
			for i := range buf {
				for _, flip := range []byte{0x01, 0x80, 0xff} {
					buf[i] ^= flip
					if hasPattern(buf, 5, off) {
						t.Fatalf("%d bytes at %d: check misses byte %d xor %#x", n, off, i, flip)
					}
					buf[i] ^= flip
				}
			}
		}
	}
	if !hasPattern(nil, 5, 0) {
		t.Fatal("an empty transfer fails the check")
	}
}

// BenchmarkVerifiedTransfer fills one 64 KiB transfer, as a verified write
// does, and checks it, as a verified read does.
func BenchmarkVerifiedTransfer(b *testing.B) {
	const n = 64 << 10
	buf := make([]byte, n)
	b.SetBytes(n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		off := int64(i%1024) * n
		pattern(buf, 3, off)
		if !hasPattern(buf, 3, off) {
			b.Fatal("a fresh fill fails the check")
		}
	}
}
