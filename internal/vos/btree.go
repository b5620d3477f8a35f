// Package vos implements the Versioned Object Store: the per-target storage
// engine DAOS runs over persistent memory. Objects hold distribution keys
// (dkeys); dkeys hold attribute keys (akeys); akeys hold either a single
// versioned value or a byte-array of versioned extents. All indexes are
// B+trees, as in the real VOS, and every update is tagged with an epoch so
// reads can be served at any point in history until aggregation merges old
// versions.
//
// Array writes are zero-copy: an extent keeps the writer's bytes, so a
// writer hands its buffer over and must not modify it after the update.
// Reads copy visible bytes out into the caller's buffer.
package vos

import "bytes"

// btreeOrder is the fan-out of the B+tree. VOS uses wide nodes to keep trees
// shallow on byte-addressable media.
const btreeOrder = 16

// BTree is an in-memory B+tree keyed by byte slices, the index structure for
// object tables, dkey/akey trees, and DFS directories. Values are opaque.
// Keys are copied on insert; values are stored as given.
type BTree struct {
	root *btreeNode
	size int
}

// btreeNode is either a leaf (items only) or an internal node (children).
// Internal nodes hold separator keys: children[i] covers keys < keys[i];
// children[len(keys)] covers the rest.
type btreeNode struct {
	keys     [][]byte
	values   []interface{} // leaves only, parallel to keys
	children []*btreeNode  // internal only, len(keys)+1
}

func (n *btreeNode) leaf() bool { return n.children == nil }

// NewBTree returns an empty tree.
func NewBTree() *BTree { return &BTree{root: &btreeNode{}} }

// Len returns the number of stored keys.
func (t *BTree) Len() int { return t.size }

// search returns the index of the first key >= k in node n.
func search(keys [][]byte, k []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], k) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < len(keys) && bytes.Equal(keys[lo], k)
	return lo, found
}

// Get returns the value stored under k.
func (t *BTree) Get(k []byte) (interface{}, bool) {
	n := t.root
	for !n.leaf() {
		i, found := search(n.keys, k)
		if found {
			i++ // separator equal to key: key lives in the right subtree
		}
		n = n.children[i]
	}
	i, found := search(n.keys, k)
	if !found {
		return nil, false
	}
	return n.values[i], true
}

// Put inserts or replaces the value under k, reporting whether the key was
// newly inserted.
func (t *BTree) Put(k []byte, v interface{}) bool {
	inserted := t.insert(t.root, k, v)
	if len(t.root.keys) >= btreeOrder {
		left, sep, right := split(t.root)
		t.root = &btreeNode{
			keys:     [][]byte{sep},
			children: []*btreeNode{left, right},
		}
	}
	if inserted {
		t.size++
	}
	return inserted
}

func (t *BTree) insert(n *btreeNode, k []byte, v interface{}) bool {
	if n.leaf() {
		i, found := search(n.keys, k)
		if found {
			n.values[i] = v
			return false
		}
		kc := append([]byte(nil), k...)
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = kc
		n.values = append(n.values, nil)
		copy(n.values[i+1:], n.values[i:])
		n.values[i] = v
		return true
	}
	i, found := search(n.keys, k)
	if found {
		i++
	}
	child := n.children[i]
	inserted := t.insert(child, k, v)
	if len(child.keys) >= btreeOrder {
		left, sep, right := split(child)
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = sep
		n.children = append(n.children, nil)
		copy(n.children[i+2:], n.children[i+1:])
		n.children[i] = left
		n.children[i+1] = right
	}
	return inserted
}

// split divides an overfull node into two halves and returns the separator
// promoted to the parent. For leaves the separator is the first key of the
// right half (B+tree style: all keys stay in leaves).
func split(n *btreeNode) (left *btreeNode, sep []byte, right *btreeNode) {
	mid := len(n.keys) / 2
	if n.leaf() {
		right = &btreeNode{
			keys:   append([][]byte(nil), n.keys[mid:]...),
			values: append([]interface{}(nil), n.values[mid:]...),
		}
		left = &btreeNode{
			keys:   append([][]byte(nil), n.keys[:mid]...),
			values: append([]interface{}(nil), n.values[:mid]...),
		}
		return left, right.keys[0], right
	}
	sep = n.keys[mid]
	left = &btreeNode{
		keys:     append([][]byte(nil), n.keys[:mid]...),
		children: append([]*btreeNode(nil), n.children[:mid+1]...),
	}
	right = &btreeNode{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*btreeNode(nil), n.children[mid+1:]...),
	}
	return left, sep, right
}

// Delete removes k, reporting whether it was present. Nodes are allowed to
// underflow (no rebalancing): VOS-style trees are write-mostly and the
// simulator favours simplicity over worst-case height, which stays bounded
// because deletes never increase height.
func (t *BTree) Delete(k []byte) bool {
	n := t.root
	for !n.leaf() {
		i, found := search(n.keys, k)
		if found {
			i++
		}
		n = n.children[i]
	}
	i, found := search(n.keys, k)
	if !found {
		return false
	}
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.values = append(n.values[:i], n.values[i+1:]...)
	t.size--
	return true
}

// Ascend calls fn for every key/value in ascending key order until fn
// returns false.
func (t *BTree) Ascend(fn func(k []byte, v interface{}) bool) {
	t.ascend(t.root, fn)
}

func (t *BTree) ascend(n *btreeNode, fn func(k []byte, v interface{}) bool) bool {
	if n.leaf() {
		for i, k := range n.keys {
			if !fn(k, n.values[i]) {
				return false
			}
		}
		return true
	}
	for i, c := range n.children {
		if !t.ascend(c, fn) {
			return false
		}
		if i < len(n.keys) {
			// Separator keys are routing information only; the real
			// key/value pairs all live in leaves.
			continue
		}
	}
	return true
}

// AscendRange calls fn for keys in [lo, hi) in ascending order until fn
// returns false. A nil hi means unbounded.
func (t *BTree) AscendRange(lo, hi []byte, fn func(k []byte, v interface{}) bool) {
	t.Ascend(func(k []byte, v interface{}) bool {
		if lo != nil && bytes.Compare(k, lo) < 0 {
			return true
		}
		if hi != nil && bytes.Compare(k, hi) >= 0 {
			return false
		}
		return fn(k, v)
	})
}

// Keys returns all keys in ascending order (copies).
func (t *BTree) Keys() [][]byte {
	out := make([][]byte, 0, t.size)
	t.Ascend(func(k []byte, v interface{}) bool {
		out = append(out, append([]byte(nil), k...))
		return true
	})
	return out
}
