// Package gobrec decodes self-contained gob records without compiling the
// record type's decoder on every call.
//
// A self-contained record is one value written by a fresh gob.Encoder, so
// every record of a type T starts with the same bytes: T's type
// definitions. A fresh gob.Decoder must read those definitions and compile
// a decoding engine for them before it reaches the value, and for a small
// struct that costs several times the value itself. Decoder[T] instead
// keeps pooled gob.Decoders that have already read the definitions, and
// hands one of them only the rest of the record.
//
// The result is the one a fresh decoder returns. A pooled decoder holds
// exactly the state a fresh decoder has after reading the prefix, and it
// keeps that state: it is given only records whose next message is a value
// rather than another type definition, it is never made for a type that
// can hold interface values (gob may define their concrete types inside a
// value), and a decoder that fails is dropped. Every other record (one
// without the prefix, one of a type that has no definitions to skip or can
// hold interface values, or one a pooled decoder rejects) is decoded by a
// fresh gob.Decoder, which also produces the error.
package gobrec

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
)

// Decoder decodes gob records of type T. The zero value is ready to use;
// a Decoder must not be copied after first use.
type Decoder[T any] struct {
	once   sync.Once
	prefix []byte    // T's type definitions; empty when records cannot be primed
	pool   sync.Pool // of *primed
}

// primed is a gob.Decoder that has read T's type definitions from r.
type primed struct {
	r   bytes.Reader
	dec *gob.Decoder
}

// Decode decodes rec into a zero T and, on success, stores it in *v. On
// error *v is left unchanged.
func (d *Decoder[T]) Decode(rec []byte, v *T) error {
	d.once.Do(d.init)
	if rest, ok := bytes.CutPrefix(rec, d.prefix); ok && len(d.prefix) > 0 && valueNext(rest) {
		p, _ := d.pool.Get().(*primed)
		if p == nil {
			p = new(primed)
			p.dec = gob.NewDecoder(&p.r)
			rest = rec // reading the definitions primes the new decoder
		}
		p.r.Reset(rest)
		var t T
		err := p.dec.Decode(&t)
		p.r.Reset(nil) // do not pin rec in the pool
		if err == nil {
			d.pool.Put(p)
			*v = t
			return nil
		}
	}
	var t T
	if err := gob.NewDecoder(bytes.NewReader(rec)).Decode(&t); err != nil {
		return err
	}
	*v = t
	return nil
}

// init computes T's definitions prefix: T's zero value encoded twice on one
// encoder yields the definitions plus a value message, then the bare value
// message, so the first output less the second's length is the prefix.
func (d *Decoder[T]) init() {
	if hasInterface(reflect.TypeFor[T](), map[reflect.Type]bool{}) {
		return
	}
	var zero T
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if enc.Encode(zero) != nil {
		return
	}
	n := buf.Len()
	if enc.Encode(zero) == nil {
		d.prefix = buf.Bytes()[:2*n-buf.Len()]
	}
}

// hasInterface reports whether t can hold an interface value anywhere.
func hasInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return hasInterface(t.Elem(), seen)
	case reflect.Map:
		return hasInterface(t.Key(), seen) || hasInterface(t.Elem(), seen)
	case reflect.Struct:
		for i := range t.NumField() {
			if hasInterface(t.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// valueNext reports whether b starts with a gob value message: a length,
// then a type id whose sign bit, the low bit of its last byte, is clear. A
// negative id starts a type definition, which a pooled decoder would keep.
func valueNext(b []byte) bool {
	n := uintLen(b)
	m := uintLen(b[n:])
	return n > 0 && m > 0 && b[n+m-1]&1 == 0
}

// uintLen returns the length of the gob unsigned integer b starts with: one
// byte below 0x80, else a byte holding minus the count of big-endian bytes
// that follow (at most 8). It returns 0 when b does not start with one.
func uintLen(b []byte) int {
	switch {
	case len(b) == 0:
		return 0
	case b[0] < 0x80:
		return 1
	case b[0] >= 0xf8 && len(b) > -int(int8(b[0])):
		return 1 - int(int8(b[0]))
	}
	return 0
}
