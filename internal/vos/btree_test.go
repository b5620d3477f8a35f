package vos

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreePutGet(t *testing.T) {
	tr := NewBTree()
	if _, ok := tr.Get([]byte("missing")); ok {
		t.Fatal("empty tree returned a value")
	}
	if !tr.Put([]byte("a"), 1) {
		t.Fatal("fresh insert reported as replace")
	}
	if tr.Put([]byte("a"), 2) {
		t.Fatal("replace reported as insert")
	}
	v, ok := tr.Get([]byte("a"))
	if !ok || v.(int) != 2 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestBTreeManyKeysSorted(t *testing.T) {
	tr := NewBTree()
	const n = 1000
	// Insert in a scrambled deterministic order.
	for i := 0; i < n; i++ {
		j := (i * 7919) % n
		tr.Put([]byte(fmt.Sprintf("key%06d", j)), j)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	var prev []byte
	count := 0
	tr.Ascend(func(k []byte, v interface{}) bool {
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("out of order: %q then %q", prev, k)
		}
		want := fmt.Sprintf("key%06d", v.(int))
		if string(k) != want {
			t.Fatalf("key %q does not match value %v", k, v)
		}
		prev = append(prev[:0], k...)
		count++
		return true
	})
	if count != n {
		t.Fatalf("iterated %d, want %d", count, n)
	}
}

func TestBTreeEarlyStop(t *testing.T) {
	tr := NewBTree()
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%03d", i)), i)
	}
	count := 0
	tr.Ascend(func(k []byte, v interface{}) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop iterated %d, want 5", count)
	}
}

func TestBTreeKeyCopied(t *testing.T) {
	tr := NewBTree()
	k := []byte("mutable")
	tr.Put(k, 1)
	k[0] = 'X'
	if _, ok := tr.Get([]byte("mutable")); !ok {
		t.Fatal("tree aliased caller's key buffer")
	}
}

// TestBTreeMatchesReferenceMap is the core property test: a B+tree behaves
// exactly like a sorted map under arbitrary operation sequences.
func TestBTreeMatchesReferenceMap(t *testing.T) {
	type op struct {
		Key   uint16
		Value uint8
	}
	f := func(ops []op) bool {
		tr := NewBTree()
		ref := map[string]interface{}{}
		for _, o := range ops {
			k := fmt.Sprintf("%05d", o.Key%500)
			_, existed := ref[k]
			ref[k] = int(o.Value)
			if tr.Put([]byte(k), int(o.Value)) == existed {
				return false
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		// Iteration must visit exactly the reference keys, sorted.
		var refKeys []string
		for k := range ref {
			refKeys = append(refKeys, k)
		}
		sort.Strings(refKeys)
		i := 0
		good := true
		tr.Ascend(func(k []byte, v interface{}) bool {
			if i >= len(refKeys) || string(k) != refKeys[i] || v.(int) != ref[refKeys[i]].(int) {
				good = false
				return false
			}
			i++
			return true
		})
		return good && i == len(refKeys)
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
