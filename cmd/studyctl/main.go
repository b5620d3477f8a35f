// Command studyctl is the client for a daosd study server. Its submit
// subcommand routes the paper's figure sweeps through the server — the
// same grids cmd/figures runs in-process — streaming per-point progress as
// results land and rendering the identical tables, claim checks, and CSV.
// The stats subcommand snapshots the server's scheduler, fleet, cache, and
// durability counters, including per-worker up/down state on a coordinator.
//
// Submissions survive connection loss: the client retries transient
// connect failures with bounded exponential backoff and, once the server
// has assigned the batch an identity, resumes the result stream where it
// left off — against a daosd running with -store-dir, that holds across a
// server crash and restart.
//
//	studyctl submit -server 127.0.0.1:9464                 # both figures
//	studyctl submit -server :9464 -quick -fig 1 -progress  # stream Fig. 1 points
//	studyctl submit -server :9464 -csv out.csv             # dump raw series
//	studyctl health -server :9464                          # readiness probe
//	studyctl stats -server :9464                           # fleet + cache counters
//
// Exit codes separate the failure planes: 1 is a transport or usage
// failure (nothing trustworthy came back), exit code 2 means the sweep
// completed but some points recorded errors — the tables rendered, the
// failing cells read as zeros, and the error count was printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"daosim/internal/bench"
	"daosim/internal/core"
	"daosim/internal/studysvc"
)

// Exit codes. Transport and usage failures exit 1; a completed sweep whose
// points carried errors exits exitPointErrors, so scripts can tell "the
// server was unreachable" from "the sweep ran and some cells are bad".
const (
	exitFailure     = 1
	exitPointErrors = 2
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	fmt.Fprintf(os.Stderr, "studyctl: %v\n", err)
	os.Exit(exitCode(err))
}

// exitCode maps a run error to the process exit code: point failures are
// distinct from everything else.
func exitCode(err error) int {
	var pe *core.PointErrors
	if errors.As(err, &pe) {
		return exitPointErrors
	}
	return exitFailure
}

// run executes one studyctl invocation, writing human output to out.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("studyctl: usage: studyctl submit|health|stats -server host:port [flags]")
	}
	switch args[0] {
	case "submit":
		return runSubmit(args[1:], out)
	case "health":
		return runHealth(args[1:], out)
	case "stats":
		return runStats(args[1:], out)
	default:
		return fmt.Errorf("studyctl: unknown subcommand %q (want submit, health, or stats)", args[0])
	}
}

// runSubmit drives the figure sweeps through the server.
func runSubmit(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("studyctl submit", flag.ContinueOnError)
	var (
		server   = fs.String("server", "", "daosd address (host:port or http:// URL)")
		quick    = fs.Bool("quick", false, "reduced node sweep")
		fig      = fs.String("fig", "0", "run only this figure (1, 2, or fault); 0 = both paper figures")
		csvPath  = fs.String("csv", "", "write raw series CSV to this file")
		progress = fs.Bool("progress", false, "print each point as it streams back")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("studyctl: -server is required")
	}

	client := studysvc.NewClient(*server)
	// Reconnects are part of normal operation against a durable or briefly
	// unreachable server; narrate them so a resumed sweep is explainable.
	client.OnRetry = func(attempt int, wait time.Duration, err error) {
		fmt.Fprintf(os.Stderr, "studyctl: connection lost (%v); retry %d in %v\n", err, attempt, wait)
	}
	if *progress {
		client.OnPoint = func(sp studysvc.StreamPoint) {
			mark := ""
			if sp.CacheHit {
				mark = "  (cache)"
			}
			if sp.Err != "" {
				mark = "  ERROR: " + sp.Err
			}
			fmt.Fprintf(out, "  point study=%d series=%d nodes=%d write=%.2f read=%.2f GiB/s%s\n",
				sp.Study, sp.Series, sp.Nodes, sp.WriteGiBs, sp.ReadGiBs, mark)
		}
	}
	opts := bench.Options{Runner: client, Scale: bench.Full}
	if *quick {
		opts.Scale = bench.Quick
	}

	csv, err := bench.RunFigures(opts, *fig, out)
	var pe *core.PointErrors
	if err != nil && !errors.As(err, &pe) {
		// Transport/protocol failure: the sweep never completed.
		return err
	}

	if werr := bench.WriteCSV(*csvPath, csv, out); werr != nil {
		return werr
	}
	fmt.Fprintln(out, client.Ledger())
	if pe != nil {
		// The sweep completed and rendered, but not cleanly: say how many
		// cells are bad and exit distinctly (see exitCode).
		fmt.Fprintf(out, "studyctl: %d point error(s) recorded in the sweep\n", pe.Count)
		return err
	}
	return nil
}

// runHealth probes the server.
func runHealth(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("studyctl health", flag.ContinueOnError)
	server := fs.String("server", "", "daosd address (host:port or http:// URL)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("studyctl: -server is required")
	}
	if err := studysvc.NewClient(*server).Health(context.Background()); err != nil {
		return err
	}
	fmt.Fprintln(out, "ok")
	return nil
}

// runStats snapshots the server's scheduler, fleet, and cache counters.
func runStats(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("studyctl stats", flag.ContinueOnError)
	server := fs.String("server", "", "daosd address (host:port or http:// URL)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *server == "" {
		return fmt.Errorf("studyctl: -server is required")
	}
	st, err := studysvc.NewClient(*server).Stats(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workers: %d\n", st.Workers)
	fmt.Fprintf(out, "retried jobs: %d\n", st.Retries)
	for _, m := range st.Fleet {
		fmt.Fprintf(out, "  worker %-32s %-4s points=%d failures=%d probes=%d readmissions=%d\n",
			m.Name, m.State, m.Points, m.Failures, m.Probes, m.Readmissions)
	}
	if st.Cache != nil {
		// Stats.String carries its own "cache:" prefix (and the remote-tier
		// counters when a shared tier is in play).
		fmt.Fprintln(out, st.Cache.String())
	}
	if d := st.Durability; d != nil {
		fmt.Fprintf(out, "durability: %d journaled batch(es), %d live; recovered %d batch(es) (%d points replayed, %d re-enqueued); %d resumed stream(s); %d journal fsync(s)\n",
			d.JournaledBatches, d.LiveBatches, d.RecoveredBatches, d.ReplayedPoints, d.ReenqueuedPoints, d.ResumedStreams, d.JournalSyncs)
		if d.JournalErrors > 0 {
			fmt.Fprintf(out, "durability: %d journal error(s)\n", d.JournalErrors)
		}
	}
	return nil
}
