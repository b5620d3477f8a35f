package vos

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

var testOID = ObjectID{Hi: 0x1234, Lo: 0x5678}

func TestSingleValueRoundTrip(t *testing.T) {
	c := NewContainer("c0")
	created := c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 1, []byte("value1"))
	if !created {
		t.Fatal("first update did not report object creation")
	}
	if c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 2, []byte("value2")) {
		t.Fatal("second update reported object creation")
	}
	v, err := c.FetchSingle(testOID, []byte("dk"), []byte("ak"), EpochMax)
	if err != nil || string(v) != "value2" {
		t.Fatalf("fetch latest = %q, %v", v, err)
	}
	v, err = c.FetchSingle(testOID, []byte("dk"), []byte("ak"), 1)
	if err != nil || string(v) != "value1" {
		t.Fatalf("fetch@1 = %q, %v", v, err)
	}
}

func TestFetchMissing(t *testing.T) {
	c := NewContainer("c0")
	if _, err := c.FetchSingle(testOID, []byte("dk"), []byte("ak"), EpochMax); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 1, []byte("v"))
	if _, err := c.FetchSingle(testOID, []byte("other"), []byte("ak"), EpochMax); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing dkey err = %v", err)
	}
	if _, err := c.FetchSingle(testOID, []byte("dk"), []byte("other"), EpochMax); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing akey err = %v", err)
	}
}

func TestArrayRoundTrip(t *testing.T) {
	c := NewContainer("c0")
	data := bytes.Repeat([]byte("x"), 1024)
	c.UpdateArray(testOID, []byte("dk"), []byte("data"), 1, 0, data)
	c.UpdateArray(testOID, []byte("dk"), []byte("data"), 2, 1024, data)
	got := make([]byte, 1024)
	if err := c.FetchArrayInto(testOID, []byte("dk"), []byte("data"), EpochMax, 512, 1024, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.Repeat([]byte("x"), 1024)) {
		t.Fatal("array read mismatch across extent boundary")
	}
	if size := c.ArraySize(testOID, []byte("dk"), []byte("data"), EpochMax); size != 2048 {
		t.Fatalf("array size = %d, want 2048", size)
	}
	if size := c.ArraySize(testOID, []byte("dk"), []byte("data"), 1); size != 1024 {
		t.Fatalf("array size@1 = %d, want 1024", size)
	}
}

func TestMixedKindPanics(t *testing.T) {
	c := NewContainer("c0")
	c.UpdateSingle(testOID, []byte("dk"), []byte("ak"), 1, []byte("v"))
	defer func() {
		if recover() == nil {
			t.Error("array update on single akey did not panic")
		}
	}()
	c.UpdateArray(testOID, []byte("dk"), []byte("ak"), 2, 0, []byte("x"))
}

func TestListDkeysSorted(t *testing.T) {
	c := NewContainer("c0")
	for _, dk := range []string{"zeta", "alpha", "mid"} {
		c.UpdateSingle(testOID, []byte(dk), []byte("ak"), 1, []byte("v"))
	}
	dkeys, err := c.ListDkeys(testOID)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "mid", "zeta"}
	for i, w := range want {
		if string(dkeys[i]) != w {
			t.Fatalf("dkeys = %v, want %v", dkeys, want)
		}
	}
}

func TestManyObjectsManyDkeys(t *testing.T) {
	// Stress the tree composition: 50 objects x 20 dkeys x 2 akeys.
	c := NewContainer("c0")
	for o := 0; o < 50; o++ {
		oid := ObjectID{Hi: uint64(o), Lo: uint64(o * 31)}
		for d := 0; d < 20; d++ {
			dk := []byte(fmt.Sprintf("dkey.%04d", d))
			c.UpdateSingle(oid, dk, []byte("meta"), 1, []byte{byte(o), byte(d)})
			c.UpdateArray(oid, dk, []byte("data"), 1, int64(d)*10, bytes.Repeat([]byte{byte(o)}, 10))
		}
	}
	for o := 0; o < 50; o++ {
		oid := ObjectID{Hi: uint64(o), Lo: uint64(o * 31)}
		for d := 0; d < 20; d++ {
			dk := []byte(fmt.Sprintf("dkey.%04d", d))
			v, err := c.FetchSingle(oid, dk, []byte("meta"), EpochMax)
			if err != nil || v[0] != byte(o) || v[1] != byte(d) {
				t.Fatalf("obj %d dkey %d: %v %v", o, d, v, err)
			}
			arr := make([]byte, 10)
			err = c.FetchArrayInto(oid, dk, []byte("data"), EpochMax, int64(d)*10, 10, arr)
			if err != nil || !bytes.Equal(arr, bytes.Repeat([]byte{byte(o)}, 10)) {
				t.Fatalf("obj %d dkey %d array: %v %v", o, d, arr, err)
			}
		}
	}
}

func TestObjectIDKeyOrdering(t *testing.T) {
	a := ObjectID{Hi: 1, Lo: 0xFFFFFFFFFFFFFFFF}
	b := ObjectID{Hi: 2, Lo: 0}
	if bytes.Compare(a.Key(), b.Key()) >= 0 {
		t.Fatal("OID key encoding does not sort by (Hi, Lo)")
	}
}
