// Command quickstart is the minimal end-to-end walkthrough of the library:
// boot a simulated NEXTGenIO-class cluster, create a pool and container,
// and touch every interface level the paper studies — the native KV and
// array APIs, the DFS filesystem, and a POSIX file through a DFuse mount —
// verifying data through each and printing the virtual time each path cost.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"daosim/internal/cluster"
	"daosim/internal/daos"
	"daosim/internal/dfs"
	"daosim/internal/dfuse"
	"daosim/internal/placement"
	"daosim/internal/sim"
)

func main() {
	tb := cluster.New(cluster.NEXTGenIO())
	client := tb.NewClient(tb.ClientNode(0), 1)

	tb.Run(func(p *sim.Proc) {
		// 1. Pool and container via the Raft-replicated pool service.
		pool, err := client.CreatePool(p, "quickstart-pool")
		if err != nil {
			log.Fatal(err)
		}
		ct, err := pool.CreateContainer(p, "quickstart-cont", daos.ContProps{Class: placement.S2})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pool %s / container %s ready at t=%v\n", pool.Info.UUID, ct.UUID, p.Now())

		// 2. Native KV API.
		t0 := p.Now()
		kv, err := ct.OpenKV(p, ct.AllocOID(placement.SX))
		if err != nil {
			log.Fatal(err)
		}
		if err := kv.Put(p, "greeting", []byte("hello object world")); err != nil {
			log.Fatal(err)
		}
		v, err := kv.Get(p, "greeting")
		if err != nil || string(v) != "hello object world" {
			log.Fatalf("kv round trip: %q, %v", v, err)
		}
		fmt.Printf("KV put+get           took %8v\n", p.Now()-t0)

		// 3. Native array API: 8 MiB striped over two targets (S2).
		t0 = p.Now()
		arr, err := ct.OpenArray(p, ct.AllocOID(placement.S2))
		if err != nil {
			log.Fatal(err)
		}
		payload := bytes.Repeat([]byte("daos"), 2<<20) // 8 MiB
		if err := arr.Write(p, 0, payload); err != nil {
			log.Fatal(err)
		}
		back := make([]byte, len(payload))
		if err := arr.ReadAtInto(p, 0, int64(len(back)), 0, back); err != nil || !bytes.Equal(back, payload) {
			log.Fatal("array round trip failed")
		}
		fmt.Printf("array 8 MiB w+r      took %8v\n", p.Now()-t0)

		// 4. DFS: the filesystem interface.
		t0 = p.Now()
		fsys, err := dfs.Mount(p, ct)
		if err != nil {
			log.Fatal(err)
		}
		if err := fsys.MkdirAll(p, "/demo/data"); err != nil {
			log.Fatal(err)
		}
		f, err := fsys.Create(p, "/demo/data/field.bin", dfs.CreateOpts{Class: placement.SX})
		if err != nil {
			log.Fatal(err)
		}
		if err := f.WriteAt(p, 0, payload); err != nil {
			log.Fatal(err)
		}
		size, _ := f.Size(p)
		fmt.Printf("DFS 8 MiB write      took %8v (file size %d)\n", p.Now()-t0, size)

		// 5. POSIX through the DFuse mount: same file, kernel-path costs.
		t0 = p.Now()
		mount := dfuse.NewMount(tb.Sim, tb.ClientNode(0), fsys, dfuse.DefaultCosts())
		fd, err := mount.Open(p, "/demo/data/field.bin", dfuse.O_RDWR, dfs.CreateOpts{})
		if err != nil {
			log.Fatal(err)
		}
		got := make([]byte, len(payload))
		if err := fd.PreadInto(p, 0, int64(len(got)), got); err != nil || !bytes.Equal(got, payload) {
			log.Fatal("dfuse read mismatch")
		}
		fd.Close(p)
		fmt.Printf("DFuse 8 MiB read     took %8v (vs DFS direct above)\n", p.Now()-t0)

		fmt.Printf("\ntotal virtual time: %v\n", p.Now())
	})
	_ = time.Now
}
