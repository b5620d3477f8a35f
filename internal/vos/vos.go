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

// Errors returned by VOS operations.
var (
	// ErrNotFound reports a missing object, dkey, or akey.
	ErrNotFound = errors.New("vos: not found")
	// ErrPunched reports access to a punched (deleted) entity.
	ErrPunched = errors.New("vos: punched")
)

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
	punched Epoch // 0 = never punched
}

// dkey holds the akey tree for one distribution key.
type dkey struct {
	akeys   *BTree // akey name -> *akey
	punched Epoch
}

// object is one object shard stored on this target.
type object struct {
	dkeys   *BTree // dkey name -> *dkey
	punched Epoch
}

// Container is a VOS container: an object table plus epoch bookkeeping.
// One exists per (DAOS container, target) pair.
type Container struct {
	UUID    string
	objects *BTree // ObjectID key -> *object
	// UsedBytes approximates the media footprint of stored values.
	UsedBytes int64
	// highest epoch seen, for container queries.
	maxEpoch Epoch
}

// NewContainer creates an empty VOS container.
func NewContainer(uuid string) *Container {
	return &Container{UUID: uuid, objects: NewBTree()}
}

// NumObjects returns the number of object shards stored.
func (c *Container) NumObjects() int { return c.objects.Len() }

// MaxEpoch returns the highest epoch of any update applied.
func (c *Container) MaxEpoch() Epoch { return c.maxEpoch }

func (c *Container) noteEpoch(e Epoch) {
	if e > c.maxEpoch {
		c.maxEpoch = e
	}
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
	c.UsedBytes += int64(len(value))
	c.noteEpoch(epoch)
	return created
}

// FetchSingle reads the newest single-value version visible at epoch.
func (c *Container) FetchSingle(oid ObjectID, dk, ak []byte, epoch Epoch) ([]byte, error) {
	a, err := c.lookupAkey(oid, dk, ak, epoch)
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
	if best == nil || (a.punched != 0 && a.punched <= epoch && best.epoch <= a.punched) {
		return nil, ErrNotFound
	}
	return append([]byte(nil), best.value...), nil
}

// UpdateArray writes data into an array akey at the byte offset. The store
// keeps data, not a copy: do not modify it after the call. It returns true
// when the object shard was created by this update.
func (c *Container) UpdateArray(oid ObjectID, dk, ak []byte, epoch Epoch, offset int64, data []byte) bool {
	obj, created := c.getObject(oid, true)
	a := obj.getDkey(dk, true).getAkey(ak, true)
	if a.kind == kindSingle {
		panic("vos: array update on single-value akey")
	}
	if a.kind == kindUnset {
		a.kind = kindArray
		a.extents = NewExtentTree()
	}
	a.extents.Insert(offset, epoch, data)
	c.UsedBytes += int64(len(data))
	c.noteEpoch(epoch)
	return created
}

// FetchArray reads length bytes at offset visible at epoch. Holes read as
// zeros; a fully-absent akey returns ErrNotFound.
func (c *Container) FetchArray(oid ObjectID, dk, ak []byte, epoch Epoch, offset int64, length int) ([]byte, error) {
	a, err := c.lookupAkey(oid, dk, ak, epoch)
	if err != nil {
		return nil, err
	}
	if a.kind != kindArray {
		return nil, fmt.Errorf("%w: akey %q is not an array", ErrNotFound, ak)
	}
	buf, _ := a.extents.Read(offset, length, epoch)
	return buf, nil
}

// FetchArrayInto reads length bytes at offset visible at epoch into dst,
// which must be length bytes long (holes read as zeros; every byte of dst is
// written). A nil dst performs the identical lookup and visibility walk
// without materializing bytes — absence semantics (ErrNotFound, ErrPunched)
// are exactly FetchArray's either way.
func (c *Container) FetchArrayInto(oid ObjectID, dk, ak []byte, epoch Epoch, offset int64, length int, dst []byte) error {
	a, err := c.lookupAkey(oid, dk, ak, epoch)
	if err != nil {
		return err
	}
	if a.kind != kindArray {
		return fmt.Errorf("%w: akey %q is not an array", ErrNotFound, ak)
	}
	a.extents.ReadInto(dst, offset, length, epoch)
	return nil
}

// ArraySize returns the akey's visible high-water mark at epoch, or 0 when
// the akey does not exist.
func (c *Container) ArraySize(oid ObjectID, dk, ak []byte, epoch Epoch) int64 {
	a, err := c.lookupAkey(oid, dk, ak, epoch)
	if err != nil || a.kind != kindArray {
		return 0
	}
	return a.extents.VisibleSize(epoch)
}

func (c *Container) lookupAkey(oid ObjectID, dk, ak []byte, epoch Epoch) (*akey, error) {
	obj, _ := c.getObject(oid, false)
	if obj == nil {
		return nil, fmt.Errorf("%w: object %v", ErrNotFound, oid)
	}
	if obj.punched != 0 && obj.punched <= epoch {
		return nil, fmt.Errorf("%w: object %v", ErrPunched, oid)
	}
	d := obj.getDkey(dk, false)
	if d == nil {
		return nil, fmt.Errorf("%w: dkey %q", ErrNotFound, dk)
	}
	if d.punched != 0 && d.punched <= epoch {
		return nil, fmt.Errorf("%w: dkey %q", ErrPunched, dk)
	}
	a := d.getAkey(ak, false)
	if a == nil {
		return nil, fmt.Errorf("%w: akey %q", ErrNotFound, ak)
	}
	return a, nil
}

// PunchObject marks the whole object deleted as of epoch.
func (c *Container) PunchObject(oid ObjectID, epoch Epoch) error {
	obj, _ := c.getObject(oid, false)
	if obj == nil {
		return fmt.Errorf("%w: object %v", ErrNotFound, oid)
	}
	obj.punched = epoch
	c.noteEpoch(epoch)
	return nil
}

// PunchDkey marks one dkey deleted as of epoch.
func (c *Container) PunchDkey(oid ObjectID, dk []byte, epoch Epoch) error {
	obj, _ := c.getObject(oid, false)
	if obj == nil {
		return fmt.Errorf("%w: object %v", ErrNotFound, oid)
	}
	d := obj.getDkey(dk, false)
	if d == nil {
		return fmt.Errorf("%w: dkey %q", ErrNotFound, dk)
	}
	d.punched = epoch
	c.noteEpoch(epoch)
	return nil
}

// ListDkeys returns the object's dkey names visible at epoch, in order.
func (c *Container) ListDkeys(oid ObjectID, epoch Epoch) ([][]byte, error) {
	obj, _ := c.getObject(oid, false)
	if obj == nil {
		return nil, fmt.Errorf("%w: object %v", ErrNotFound, oid)
	}
	if obj.punched != 0 && obj.punched <= epoch {
		return nil, nil
	}
	var out [][]byte
	obj.dkeys.Ascend(func(k []byte, v interface{}) bool {
		d := v.(*dkey)
		if d.punched == 0 || d.punched > epoch {
			out = append(out, append([]byte(nil), k...))
		}
		return true
	})
	return out, nil
}

// ListAkeys returns the dkey's akey names visible at epoch, in order.
func (c *Container) ListAkeys(oid ObjectID, dk []byte, epoch Epoch) ([][]byte, error) {
	obj, _ := c.getObject(oid, false)
	if obj == nil {
		return nil, fmt.Errorf("%w: object %v", ErrNotFound, oid)
	}
	d := obj.getDkey(dk, false)
	if d == nil {
		return nil, fmt.Errorf("%w: dkey %q", ErrNotFound, dk)
	}
	var out [][]byte
	d.akeys.Ascend(func(k []byte, v interface{}) bool {
		out = append(out, append([]byte(nil), k...))
		return true
	})
	return out, nil
}

// ListObjects returns the IDs of all object shards stored.
func (c *Container) ListObjects() []ObjectID {
	var out []ObjectID
	c.objects.Ascend(func(k []byte, v interface{}) bool {
		out = append(out, ObjectID{
			Hi: binary.BigEndian.Uint64(k[:8]),
			Lo: binary.BigEndian.Uint64(k[8:]),
		})
		return true
	})
	return out
}

// Aggregate merges array history at or below epoch across every object,
// returning reclaimed bytes (the VOS aggregation service).
func (c *Container) Aggregate(epoch Epoch) int64 {
	var reclaimed int64
	c.objects.Ascend(func(_ []byte, ov interface{}) bool {
		obj := ov.(*object)
		obj.dkeys.Ascend(func(_ []byte, dv interface{}) bool {
			d := dv.(*dkey)
			d.akeys.Ascend(func(_ []byte, av interface{}) bool {
				a := av.(*akey)
				if a.kind == kindArray {
					reclaimed += a.extents.Aggregate(epoch)
				}
				return true
			})
			return true
		})
		return true
	})
	c.UsedBytes -= reclaimed
	return reclaimed
}
