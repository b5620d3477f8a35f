package vos

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ObjectID identifies an object within a container. The high 16 bits of Hi
// carry the object class, mirroring DAOS OID encoding.
type ObjectID struct {
	Hi uint64
	Lo uint64
}

// Key returns the OID's B+tree key encoding (big-endian for ordering).
func (o ObjectID) Key() []byte {
	var k [16]byte
	binary.BigEndian.PutUint64(k[:8], o.Hi)
	binary.BigEndian.PutUint64(k[8:], o.Lo)
	return k[:]
}

func (o ObjectID) String() string { return fmt.Sprintf("%016x.%016x", o.Hi, o.Lo) }

// ErrNotFound reports a missing object, dkey, or akey.
var ErrNotFound = errors.New("vos: not found")

// valueKind distinguishes akey storage types.
type valueKind int

const (
	kindUnset valueKind = iota
	kindSingle
	kindArray
)

// singleVersion is one epoch-stamped single-value update.
type singleVersion struct {
	epoch Epoch
	value []byte
}

// akey holds either a single versioned value or an extent array.
type akey struct {
	kind valueKind
	// singles stores single-value versions in epoch order.
	singles []singleVersion
	extents *ExtentTree
}

// dkey holds the akey tree for one distribution key.
type dkey struct {
	akeys *BTree // akey name -> *akey
}

// object is one object shard stored on this target.
type object struct {
	dkeys *BTree // dkey name -> *dkey
}

// Container is a VOS container: an object table. One exists per (DAOS
// container, target) pair.
type Container struct {
	UUID    string
	objects *BTree // ObjectID key -> *object
}

// NewContainer creates an empty VOS container.
func NewContainer(uuid string) *Container {
	return &Container{UUID: uuid, objects: NewBTree()}
}

// getObject returns the object shard, optionally creating it. The second
// result reports whether it was created by this call (the engine charges a
// first-touch cost for that).
func (c *Container) getObject(oid ObjectID, create bool) (*object, bool) {
	if v, ok := c.objects.Get(oid.Key()); ok {
		return v.(*object), false
	}
	if !create {
		return nil, false
	}
	o := &object{dkeys: NewBTree()}
	c.objects.Put(oid.Key(), o)
	return o, true
}

func (o *object) getDkey(name []byte, create bool) *dkey {
	if v, ok := o.dkeys.Get(name); ok {
		return v.(*dkey)
	}
	if !create {
		return nil
	}
	d := &dkey{akeys: NewBTree()}
	o.dkeys.Put(name, d)
	return d
}

func (d *dkey) getAkey(name []byte, create bool) *akey {
	if v, ok := d.akeys.Get(name); ok {
		return v.(*akey)
	}
	if !create {
		return nil
	}
	a := &akey{}
	d.akeys.Put(name, a)
	return a
}

// UpdateSingle writes a single-value akey version at epoch. Unlike
// UpdateArray it copies value: single values are small metadata. It returns
// true when the object shard was created by this update (first touch).
func (c *Container) UpdateSingle(oid ObjectID, dk, ak []byte, epoch Epoch, value []byte) bool {
	obj, created := c.getObject(oid, true)
	a := obj.getDkey(dk, true).getAkey(ak, true)
	if a.kind == kindArray {
		panic("vos: single-value update on array akey")
	}
	a.kind = kindSingle
	a.singles = append(a.singles, singleVersion{epoch: epoch, value: append([]byte(nil), value...)})
	return created
}

// FetchSingle reads the newest single-value version visible at epoch.
func (c *Container) FetchSingle(oid ObjectID, dk, ak []byte, epoch Epoch) ([]byte, error) {
	a, err := c.lookupAkey(oid, dk, ak)
	if err != nil {
		return nil, err
	}
	if a.kind != kindSingle {
		return nil, fmt.Errorf("%w: akey %q is not single-value", ErrNotFound, ak)
	}
	var best *singleVersion
	for i := range a.singles {
		v := &a.singles[i]
		if v.epoch <= epoch && (best == nil || v.epoch >= best.epoch) {
			best = v
		}
	}
	if best == nil {
		return nil, ErrNotFound
	}
	return append([]byte(nil), best.value...), nil
}

// UpdateArray writes data into an array akey at the byte offset. The store
// keeps data, not a copy: do not modify it after the call. It returns true
// when the object shard was created by this update.
func (c *Container) UpdateArray(oid ObjectID, dk, ak []byte, epoch Epoch, offset int64, data []byte) bool {
	return c.UpdateArrayFrom(oid, dk, ak, epoch, offset, int64(len(data)), data)
}

// UpdateArrayFrom writes n bytes into an array akey at the byte offset from
// data, which is nil or n bytes long. A nil data is a length-only write:
// the extent records its range and epoch but no content, and a later
// materializing fetch of a byte it supplies fails with ErrNoContent. The
// store keeps data, not a copy: do not modify it after the call. It returns
// true when the object shard was created by this update.
func (c *Container) UpdateArrayFrom(oid ObjectID, dk, ak []byte, epoch Epoch, offset, n int64, data []byte) bool {
	obj, created := c.getObject(oid, true)
	a := obj.getDkey(dk, true).getAkey(ak, true)
	if a.kind == kindSingle {
		panic("vos: array update on single-value akey")
	}
	if a.kind == kindUnset {
		a.kind = kindArray
		a.extents = NewExtentTree()
	}
	a.extents.Insert(offset, epoch, n, data)
	return created
}

// FetchArrayInto reads length bytes at offset visible at epoch into dst,
// which must be length bytes long (holes read as zeros; every byte of dst is
// written). A fully-absent akey returns ErrNotFound, and a byte whose newest
// write is length-only fails the fetch with ErrNoContent. A nil dst
// performs the identical lookup and visibility walk without materializing
// bytes: it fails with ErrNotFound just the same, but never on a
// length-only extent.
func (c *Container) FetchArrayInto(oid ObjectID, dk, ak []byte, epoch Epoch, offset int64, length int, dst []byte) error {
	a, err := c.lookupAkey(oid, dk, ak)
	if err != nil {
		return err
	}
	if a.kind != kindArray {
		return fmt.Errorf("%w: akey %q is not an array", ErrNotFound, ak)
	}
	_, err = a.extents.ReadInto(dst, offset, length, epoch)
	return err
}

// ArraySize returns the akey's visible high-water mark at epoch, or 0 when
// the akey does not exist.
func (c *Container) ArraySize(oid ObjectID, dk, ak []byte, epoch Epoch) int64 {
	a, err := c.lookupAkey(oid, dk, ak)
	if err != nil || a.kind != kindArray {
		return 0
	}
	return a.extents.VisibleSize(epoch)
}

func (c *Container) lookupAkey(oid ObjectID, dk, ak []byte) (*akey, error) {
	obj, _ := c.getObject(oid, false)
	if obj == nil {
		return nil, fmt.Errorf("%w: object %v", ErrNotFound, oid)
	}
	d := obj.getDkey(dk, false)
	if d == nil {
		return nil, fmt.Errorf("%w: dkey %q", ErrNotFound, dk)
	}
	a := d.getAkey(ak, false)
	if a == nil {
		return nil, fmt.Errorf("%w: akey %q", ErrNotFound, ak)
	}
	return a, nil
}

// ListDkeys returns the object's dkey names in order.
func (c *Container) ListDkeys(oid ObjectID) ([][]byte, error) {
	obj, _ := c.getObject(oid, false)
	if obj == nil {
		return nil, fmt.Errorf("%w: object %v", ErrNotFound, oid)
	}
	var out [][]byte
	obj.dkeys.Ascend(func(k []byte, v interface{}) bool {
		out = append(out, append([]byte(nil), k...))
		return true
	})
	return out, nil
}
