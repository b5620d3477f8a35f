// Command daosd serves the sharded multi-study scheduler (internal/studysvc):
// a long-lived HTTP service that accepts study batch submissions, shards
// their (variant, node-count) points across a bounded worker pool, consults
// the content-addressed point cache before simulating, and streams completed
// points back to each client as NDJSON. Results through the service are
// byte-identical to in-process core.Runner sweeps.
//
// With -workers, daosd runs as a fleet coordinator: each listed peer daosd
// joins the pool as a remote worker executing point jobs shipped over the
// /v1/points protocol leg. A peer that dies mid-point costs nothing but a
// retry — the job is re-dispatched to a healthy worker, the dead peer is
// marked down and re-probed via /v1/healthz with exponential backoff, and
// it rejoins the pool when it answers. Because jobs carry their derived
// seeds, fleet output stays byte-identical to a single in-process run at
// any topology, under any worker loss that leaves at least one worker.
//
//	daosd                      # listen on 127.0.0.1:9464, GOMAXPROCS workers
//	daosd -addr :9464          # listen on all interfaces
//	daosd -parallel 8          # shard width: at most 8 concurrent points
//	daosd -cache               # memoize points under ~/.daosim/cache
//	daosd -cache-dir .c        # memoize points under ./.c (implies -cache)
//	daosd -cache-max-bytes 64000000                # bound the disk tier to ~64 MB (LRU eviction)
//	daosd -cache-peer http://h0:9464               # mount h0's cache as a shared remote tier
//	daosd -workers http://h1:9464,http://h2:9464   # coordinate a fleet
//	daosd -workers ... -parallel 2 -remote-slots 4 # plus 2 local slots, 4 in-flight points per peer
//	daosd -store-dir .jobs     # journal submissions; crash recovery resumes them
//
// With -workers, -parallel counts *local* execution slots and defaults to
// zero — a pure coordinator that simulates nothing itself.
//
// With -store-dir, every submission is journaled to a checksummed
// append-only log before results are exposed. A daosd killed mid-sweep
// and restarted on the same directory replays completed points from the
// journal, re-enqueues only the incomplete remainder, and serves
// reconnecting clients (which resume via GET /v1/studies/{batch}) a
// byte-identical stream.
//
// Submit with cmd/studyctl, or point `figures -server addr` at it. On
// SIGINT/SIGTERM the server drains in-flight points and reports its cache
// ledger and fleet summary before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"daosim/internal/cache"
	"daosim/internal/jobstore"
	"daosim/internal/studysvc"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9464", "listen address (host:port)")
		parallel    = flag.Int("parallel", 0, "local worker slots: max concurrent local sweep points (0 = all cores, or no local slots with -workers)")
		workers     = flag.String("workers", "", "comma-separated peer daosd URLs to coordinate as remote workers")
		remoteSlots = flag.Int("remote-slots", 1, "point jobs kept in flight per remote worker")
		cacheOn     = flag.Bool("cache", false, "memoize sweep points (disk tier under ~/.daosim/cache unless -cache-dir overrides)")
		cacheDir    = flag.String("cache-dir", "", "on-disk cache tier directory (implies -cache; explicitly empty = memory-only)")
		cacheMax    = flag.Int64("cache-max-bytes", 0, "disk cache tier byte budget; least-recently-used entries are evicted above it (0 = unbounded)")
		cachePeer   = flag.String("cache-peer", "", "peer daosd URL whose cache joins the stack as a remote tier (enables caching)")
		storeDir    = flag.String("store-dir", "", "journal submissions to this directory; a restarted daosd replays completed points and resumes the rest")
	)
	flag.Parse()

	pointCache, err := cache.Open(*cacheOn, cache.FlagPassed("cache-dir"), *cacheDir, *cachePeer, *cacheMax)
	if err != nil {
		log.Fatal(err)
	}
	var store *jobstore.Store
	if *storeDir != "" {
		store, err = jobstore.Open(*storeDir)
		if err != nil {
			log.Fatal(err)
		}
		defer store.Close()
	}
	var remotes []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			remotes = append(remotes, w)
		}
	}
	srv := studysvc.New(studysvc.Config{
		Workers:     *parallel,
		Remotes:     remotes,
		RemoteSlots: *remoteSlots,
		Cache:       pointCache,
		Store:       store,
	})
	if store != nil {
		batches, replayed, reenqueued := srv.Recovery()
		fmt.Printf("daosd: recovered %d batch(es) from %s: replayed %d completed point(s), re-enqueued %d\n",
			batches, store.Dir(), replayed, reenqueued)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	cacheState := "off"
	if pointCache != nil {
		cacheState = "on"
		if *cachePeer != "" {
			cacheState = "on, peer " + *cachePeer
		}
	}
	// The listening line is the readiness marker scripts and TestBinaries
	// wait for; with -addr :0 it is also where they read the port.
	fmt.Printf("daosd: listening on http://%s (workers=%d, cache=%s, GOMAXPROCS=%d)\n",
		ln.Addr(), srv.Workers(), cacheState, runtime.GOMAXPROCS(0))
	if len(remotes) > 0 {
		// One startup probe per peer, informational only: a worker that is
		// still booting will be probed again the first time a job fails on
		// it, so a coordinator never refuses to start over a slow fleet.
		for _, r := range remotes {
			state := "up"
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := studysvc.NewClient(r).Health(ctx); err != nil {
				state = fmt.Sprintf("unreachable (%v)", err)
			}
			cancel()
			fmt.Printf("daosd: fleet worker %s: %s\n", r, state)
		}
	}

	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	closing := make(chan struct{})
	// Result streams are long-lived, so no overall read/write deadline —
	// but slow-header and idle connections must not pin file descriptors
	// on a service that may face the open network.
	httpSrv := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() {
		err := httpSrv.Serve(ln)
		select {
		case <-closing: // shutdown in progress; Serve's error is the closed listener
		default:
			log.Fatal(err)
		}
	}()

	sig := <-done
	fmt.Printf("daosd: %v, draining\n", sig)
	close(closing)
	// Graceful first: stop accepting, let in-flight result streams finish
	// within the grace period, then sever whatever remains.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		httpSrv.Close()
	}
	cancel()
	srv.Close()
	if pointCache != nil {
		fmt.Println(pointCache.Stats())
	}
	if len(remotes) > 0 {
		fmt.Printf("daosd: fleet retried %d job(s)\n", srv.Retries())
		for _, m := range srv.Fleet() {
			fmt.Printf("daosd: fleet worker %-32s %-4s points=%d failures=%d probes=%d readmissions=%d\n",
				m.Name, m.State, m.Points, m.Failures, m.Probes, m.Readmissions)
		}
	}
}
