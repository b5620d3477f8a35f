package gobrec_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"daosim/internal/dfs"
	"daosim/internal/gobrec"
	"daosim/internal/placement"
	"daosim/internal/svc"
	"daosim/internal/vos"
)

// entry has the layout of a DFS directory record.
type entry struct {
	Type  dfs.EntryType
	OID   vos.ObjectID
	Chunk int64
	Class placement.ClassID
	Mtime int64
}

// fuzzRec is the fuzzed record type. It has no map field: gob sizes a map
// from the length it reads, so a fuzzed map mostly measures allocation.
type fuzzRec struct {
	Name, Label string
	N           int64
	Xs          []int
}

// encode returns v as a self-contained gob record.
func encode(tb testing.TB, v any) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// prefixOf returns the type definitions every record of T starts with: the
// zero T encoded twice on one encoder is the definitions, a value message,
// and the same value message again.
func prefixOf[T any](tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	var zero T
	if err := enc.Encode(zero); err != nil {
		tb.Fatal(err)
	}
	n := buf.Len()
	if err := enc.Encode(zero); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()[:2*n-buf.Len()]
}

// errText returns err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkMatchesGob decodes rec through d and through a fresh gob.Decoder
// and fails unless both return the same error text and, on success, equal
// values. A failed Decode must leave its destination untouched. It returns
// Decode's error.
func checkMatchesGob[T any](t *testing.T, d *gobrec.Decoder[T], rec []byte) error {
	t.Helper()
	var got, want, zero T
	gotErr := d.Decode(rec, &got)
	wantErr := gob.NewDecoder(bytes.NewReader(rec)).Decode(&want)
	if errText(gotErr) != errText(wantErr) {
		t.Fatalf("Decode(%x) error = %v, gob says %v", rec, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode(%x) = %+v, gob says %+v", rec, got, want)
	}
	if gotErr != nil && !reflect.DeepEqual(got, zero) {
		t.Fatalf("failed Decode(%x) wrote %+v", rec, got)
	}
	return gotErr
}

func TestRealRecords(t *testing.T) {
	var cmds gobrec.Decoder[svc.Command]
	var ents gobrec.Decoder[entry]
	cmd := svc.Command{
		Op:      svc.OpCreatePool,
		Pool:    "p0",
		Props:   map[string]string{"class": "S2", "rf": "0"},
		Targets: []int{0, 1, 2, 3},
	}
	ent := entry{
		Type:  dfs.TypeFile,
		OID:   placement.EncodeOID(placement.SX, 7, 42),
		Chunk: 1 << 20,
		Class: placement.SX,
		Mtime: 123456789,
	}
	// Repeats go through pooled decoders once the first has primed one.
	for i := range 5 {
		cmd.Cont = fmt.Sprintf("c%d", i)
		ent.Mtime += int64(i)
		for _, err := range []error{
			checkMatchesGob(t, &cmds, encode(t, cmd)),
			checkMatchesGob(t, &cmds, encode(t, svc.Command{Op: svc.OpQueryPool, Pool: "p0"})),
			checkMatchesGob(t, &ents, encode(t, ent)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	entPrefix := prefixOf[entry](t)
	{
		// A same-named type with other fields writes other definitions, so
		// its record misses the prefix and takes the fallback, which decodes
		// the fields the two layouts share.
		type entry struct {
			Type  dfs.EntryType
			Chunk int64
			Owner string
		}
		old := encode(t, entry{Type: dfs.TypeDir, Chunk: 4096, Owner: "root"})
		if bytes.HasPrefix(old, entPrefix) {
			t.Fatal("the other layout has the same definitions")
		}
		for range 3 {
			if err := checkMatchesGob(t, &ents, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := checkMatchesGob(t, &ents, encode(t, ent)); err != nil {
		t.Fatal(err)
	}
}

// TestDefinitionAfterPrefix decodes a record that defines one more type
// after fuzzRec's definitions, then records that use that type without
// defining it. A pooled decoder must not keep the extra definition, or it
// would decode those records where a fresh gob.Decoder fails.
func TestDefinitionAfterPrefix(t *testing.T) {
	type other struct {
		Name string
		N    int64
	}
	var d gobrec.Decoder[fuzzRec]
	prefix := prefixOf[fuzzRec](t)
	rec := encode(t, other{Name: "x", N: 1})
	defining := append(bytes.Clone(prefix), rec...)
	using := append(bytes.Clone(prefix), rec[len(prefixOf[other](t)):]...)
	for range 3 {
		if err := checkMatchesGob(t, &d, defining); err != nil {
			t.Fatal(err)
		}
		if checkMatchesGob(t, &d, using) == nil {
			t.Fatal("a record using an undefined type decoded")
		}
	}
}

type (
	leaf  struct{ S string }
	inner struct{ V any }
	outer struct {
		In inner
		V  any
	}
)

// TestInterfaceValuesFallBack decodes a type holding interface values. gob
// may define an interface value's concrete type inside the value message,
// so a pooled decoder would keep that definition and later decode a record
// that uses the type without defining it, where a fresh gob.Decoder fails.
// Such types always take the fallback.
func TestInterfaceValuesFallBack(t *testing.T) {
	gob.Register(leaf{})
	gob.Register(inner{})
	// inner's definitions are part of outer's, so the leaf in outer.V is
	// defined inside the first value message, and the second value message
	// only uses it.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	v := outer{V: inner{V: leaf{S: "x"}}}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	defining := bytes.Clone(buf.Bytes()[:n])
	using := append(bytes.Clone(prefixOf[outer](t)), buf.Bytes()[n:]...)
	var d gobrec.Decoder[outer]
	for range 3 {
		if err := checkMatchesGob(t, &d, defining); err != nil {
			t.Fatal(err)
		}
		if checkMatchesGob(t, &d, using) == nil {
			t.Fatal("a record using an undefined type decoded")
		}
	}
}

// TestPrimedDecodeSkipsTypeCompile checks that records reach pooled
// decoders: once primed, a decode allocates far less than a fresh
// gob.Decoder, which compiles the record's type first. The bound leaves
// room for the race detector, under which sync.Pool drops a quarter of the
// decoders put back.
func TestPrimedDecodeSkipsTypeCompile(t *testing.T) {
	var ents gobrec.Decoder[entry]
	rec := encode(t, entry{Type: dfs.TypeDir, Chunk: 1 << 20, Mtime: 9})
	var e entry
	fresh := testing.AllocsPerRun(1000, func() {
		if err := gob.NewDecoder(bytes.NewReader(rec)).Decode(&e); err != nil {
			t.Fatal(err)
		}
	})
	primed := testing.AllocsPerRun(1000, func() {
		if err := ents.Decode(rec, &e); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs per decode: primed %.0f, fresh %.0f", primed, fresh)
	if primed > fresh/2 {
		t.Fatalf("primed decode: %.0f allocs, fresh gob.Decoder: %.0f", primed, fresh)
	}
}

// TestConcurrentDecode decodes distinct records through one Decoder from
// many goroutines; run it with -race.
func TestConcurrentDecode(t *testing.T) {
	var d gobrec.Decoder[fuzzRec]
	const workers, each = 8, 50
	want := make([]fuzzRec, workers*each)
	recs := make([][]byte, len(want))
	for i := range want {
		want[i] = fuzzRec{Name: fmt.Sprint("r", i), Label: "l", N: int64(i), Xs: []int{i, -i}}
		recs[i] = encode(t, want[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * each; i < (w+1)*each; i++ {
				var got fuzzRec
				if err := d.Decode(recs[i], &got); err != nil || !reflect.DeepEqual(got, want[i]) {
					errs <- fmt.Errorf("record %d: got %+v, %v", i, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// fuzzDec is shared by every fuzz input, so pooled decoders carry over
// from one input to the next as they do in a long-lived process.
var fuzzDec gobrec.Decoder[fuzzRec]

// FuzzDecodeMatchesGob feeds Decode the fuzzed bytes behind fuzzRec's
// definitions prefix, where pooled decoders read them, and the fuzzed bytes
// alone, and requires a fresh gob.Decoder's result for both.
func FuzzDecodeMatchesGob(f *testing.F) {
	prefix := prefixOf[fuzzRec](f)
	for _, v := range []fuzzRec{{}, {Name: "a", N: -3, Xs: []int{1, 2}}, {Label: "ab", N: 1 << 40}} {
		rec := encode(f, v)
		f.Add(rec[len(prefix):])
		f.Add(rec)
	}
	f.Add([]byte("not gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesGob(t, &fuzzDec, append(bytes.Clone(prefix), data...))
		checkMatchesGob(t, &fuzzDec, data)
	})
}
