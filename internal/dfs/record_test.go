package dfs

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/engine"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

// TestCorruptEntry stores a directory record that starts with entry's type
// definitions and goes on with garbage. Open must report it as corrupt, and
// a good lookup after it must still succeed: a rejected record leaves the
// pooled decoders usable.
func TestCorruptEntry(t *testing.T) {
	// The zero entry encoded twice on one encoder is the type definitions,
	// a value message, and the same value message again.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(entry{}); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	if err := enc.Encode(entry{}); err != nil {
		t.Fatal(err)
	}
	// Then an 8-byte message that starts like a value (a non-negative type
	// id), so a primed decoder reads it, but holds garbage.
	bad := append(bytes.Clone(buf.Bytes()[:2*n-buf.Len()]), "\x08\x02garbage"...)

	tb := cluster.New(cluster.Small())
	client := tb.NewClient(tb.ClientNode(0), 1)
	tb.Run(func(p *sim.Proc) {
		pool, err := client.CreatePool(p, "p0")
		if err != nil {
			t.Error(err)
			return
		}
		ct, err := pool.CreateContainer(p, "c0", daos.ContProps{Class: placement.S2})
		if err != nil {
			t.Error(err)
			return
		}
		fs, err := Mount(p, ct)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.Create(p, "/good", CreateOpts{}); err != nil {
			t.Error(err)
			return
		}
		// A good lookup first, so a primed decoder meets the bad record.
		if _, err := fs.Open(p, "/good"); err != nil {
			t.Error(err)
			return
		}
		if err := fs.root.Update(p, []engine.WriteExt{{
			Dkey: []byte("bad"), Akey: entryAkey, Data: bad, Single: true,
		}}); err != nil {
			t.Error(err)
			return
		}
		if _, err := fs.Open(p, "/bad"); err == nil || !strings.Contains(err.Error(), `dfs: corrupt entry "bad"`) {
			t.Errorf("Open(/bad) err = %v, want a corrupt entry", err)
		}
		if _, err := fs.Open(p, "/good"); err != nil {
			t.Errorf("Open(/good) after the corrupt record: %v", err)
		}
	})
}
