package sim

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		bound := int(n%100) + 1
		r := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGForkIndependent(t *testing.T) {
	r := NewRNG(11)
	f1 := r.Fork()
	v := r.Uint64()
	f2 := NewRNG(11)
	_ = f2.Fork()
	if v != f2.Uint64() {
		t.Fatal("Fork perturbed parent stream inconsistently")
	}
	if f1.Uint64() == r.Uint64() {
		t.Fatal("forked stream mirrors parent")
	}
}
