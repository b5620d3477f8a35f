package integration_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"daosim/internal/studysvc"
)

// TestBinaries builds daosd, figures and studyctl once and checks what only
// real processes show: CSV byte-identical to the committed goldens and to
// in-process runs, cold and warm, through the disk cache, a daosd, a shared
// cache tier and a worker fleet; a daosd SIGKILLed mid-sweep and restarted
// on the same port and job store; and a fleet that loses a worker
// mid-sweep. Each kill waits for the first point studyctl prints, not for
// a timer, so it lands mid-sweep however fast the host is.
func TestBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the binaries")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"daosim/cmd/daosd", "daosim/cmd/figures", "daosim/cmd/studyctl")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	daosd, figures, studyctl := filepath.Join(bin, "daosd"), filepath.Join(bin, "figures"), filepath.Join(bin, "studyctl")
	dir := t.TempDir()
	tmp := func(name string) string { return filepath.Join(dir, name) }
	golden := func(name string) string { return filepath.Join("..", "..", "cmd", "figures", "testdata", name) }

	// The in-process references the server, fleet and restart runs match.
	run(t, figures, "-quick", "-fig", "1", "-csv", tmp("inproc.csv"))
	run(t, figures, "-fig", "1", "-csv", tmp("inproc-full.csv"))

	t.Run("figures", func(t *testing.T) {
		// Cold (simulated) and warm (replayed from the disk tier) CSV must
		// be exactly the goldens.
		for _, pass := range []string{"cold", "warm"} {
			for _, fig := range []string{"1", "2"} {
				csv := tmp("fig" + fig + "." + pass + ".csv")
				run(t, figures, "-quick", "-fig", fig, "-cache", "-cache-dir", tmp("cache-golden"), "-csv", csv)
				sameFile(t, csv, golden("figure"+fig+"_quick.csv"))
			}
		}
		// Both figures, and the fault grid whose points carry the degraded
		// outputs only the v2 disk record holds: a warm rerun hits every
		// point and emits the cold CSV.
		for _, fig := range []string{"0", "fault"} {
			cache := tmp("cache-" + fig)
			cold, warm := tmp(fig+".cold.csv"), tmp(fig+".warm.csv")
			run(t, figures, "-quick", "-fig", fig, "-cache", "-cache-dir", cache, "-csv", cold)
			if fig == "fault" {
				sameFile(t, cold, golden("fault_quick.csv"))
			}
			wantAllHits(t, run(t, figures, "-quick", "-fig", fig, "-cache", "-cache-dir", cache, "-csv", warm))
			sameFile(t, cold, warm)
		}
	})

	t.Run("server and shared cache tier", func(t *testing.T) {
		d := startDaosd(t, daosd, "127.0.0.1:0", "-cache-dir", tmp("cache-server"))
		run(t, figures, "-quick", "-fig", "1", "-server", d.addr, "-csv", tmp("server.cold.csv"))
		sameFile(t, tmp("server.cold.csv"), tmp("inproc.csv"))
		sameFile(t, tmp("server.cold.csv"), golden("figure1_quick.csv"))
		wantAllHits(t, run(t, figures, "-quick", "-fig", "1", "-server", d.addr, "-csv", tmp("server.warm.csv")))
		sameFile(t, tmp("server.cold.csv"), tmp("server.warm.csv"))

		// A cache-less daosd mounting d's cache as its remote tier replays
		// the whole grid from it.
		c := startDaosd(t, daosd, "127.0.0.1:0", "-cache-peer", "http://"+d.addr)
		wantAllHits(t, run(t, figures, "-quick", "-fig", "1", "-server", c.addr, "-csv", tmp("peer.warm.csv")))
		sameFile(t, tmp("server.cold.csv"), tmp("peer.warm.csv"))
		if st := stats(t, c.addr); st.Cache == nil || st.Cache.RemoteHits == 0 {
			t.Errorf("no hit came over the remote tier: %+v", st.Cache)
		}
		c.stop(t)
		// SIGTERM drains and prints the cache ledger.
		if out := d.stop(t); !strings.Contains(out, "cache:") {
			t.Errorf("daosd printed no cache ledger on SIGTERM:\n%s", out)
		}
	})

	t.Run("restart", func(t *testing.T) {
		store := tmp("jobs")
		d := startDaosd(t, daosd, "127.0.0.1:0", "-store-dir", store, "-parallel", "1")
		sub := start(t, studyctl, "submit", "-server", d.addr, "-fig", "1", "-csv", tmp("resumed.csv"), "-progress")
		sub.waitFor(t, firstPoint)
		d.kill()
		d = startDaosd(t, daosd, d.addr, "-store-dir", store, "-parallel", "1")
		if out, err := sub.wait(); err != nil {
			t.Fatalf("studyctl did not ride out the restart: %v\n%s", err, out)
		}
		sameFile(t, tmp("resumed.csv"), tmp("inproc-full.csv"))
		m := regexp.MustCompile(`recovered (\d+) batch\(es\) from .*: replayed (\d+) completed.*`).FindStringSubmatch(d.String())
		if m == nil || m[1] == "0" || m[2] == "0" {
			t.Fatalf("restart replayed nothing, so the kill did not land mid-sweep:\n%s", d)
		}
		t.Log(m[0])
		if st := stats(t, d.addr); st.Durability == nil || st.Durability.ResumedStreams == 0 {
			t.Errorf("no resumed stream counted: %+v", st.Durability)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		w1 := startDaosd(t, daosd, "127.0.0.1:0")
		w2 := startDaosd(t, daosd, "127.0.0.1:0")
		c := startDaosd(t, daosd, "127.0.0.1:0", "-workers", "http://"+w1.addr+",http://"+w2.addr)
		run(t, figures, "-quick", "-fig", "1", "-server", c.addr, "-csv", tmp("fleet.csv"))
		sameFile(t, tmp("fleet.csv"), tmp("inproc.csv"))

		// Losing a worker mid-sweep costs retries on the other, not output.
		sub := start(t, studyctl, "submit", "-server", c.addr, "-quick", "-fig", "1", "-csv", tmp("loss.csv"), "-progress")
		sub.waitFor(t, firstPoint)
		w1.kill()
		out, err := sub.wait()
		if err != nil {
			t.Fatalf("sweep did not survive losing a worker: %v\n%s", err, out)
		}
		sameFile(t, tmp("loss.csv"), tmp("inproc.csv"))
		if !strings.Contains(out, "fleet retried") {
			t.Errorf("no job was retried, so the kill did not land mid-sweep:\n%s", out)
		}
		// SIGTERM prints the fleet summary: the killed worker is down.
		lost := regexp.MustCompile(`daosd: fleet worker http://` + regexp.QuoteMeta(w1.addr) + ` +down +points=\d+ failures=[1-9]`)
		if !lost.MatchString(c.stop(t)) {
			t.Errorf("coordinator's fleet summary does not show the lost worker down:\n%s", c)
		}
	})
}

// firstPoint matches the first point studyctl submit -progress prints.
var firstPoint = regexp.MustCompile(`(?m)^  point study=`)

// run execs a binary to completion and returns its combined output,
// failing the test on a non-zero exit.
func run(t *testing.T, path string, args ...string) string {
	t.Helper()
	out, err := exec.Command(path, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(path), strings.Join(args, " "), err, out)
	}
	return string(out)
}

// sameFile fails the test unless files a and b hold the same bytes.
func sameFile(t *testing.T, a, b string) {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(x, y) {
		t.Errorf("%s and %s differ:\n--- %s ---\n%s--- %s ---\n%s", a, b, a, x, b, y)
	}
}

// wantAllHits fails the test unless a warm run's cache ledger says every
// lookup hit.
func wantAllHits(t *testing.T, out string) {
	t.Helper()
	if !strings.Contains(out, "(100.0% hits)") {
		t.Errorf("warm run missed the cache:\n%s", out)
	}
}

// stats fetches a daosd's /v1/statsz counters.
func stats(t *testing.T, addr string) studysvc.ServerStats {
	t.Helper()
	st, err := studysvc.NewClient(addr).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// proc is a started binary whose stdout and stderr the test reads as they
// arrive. t.Cleanup kills it if it is still running.
type proc struct {
	cmd   *exec.Cmd
	mu    sync.Mutex
	out   bytes.Buffer
	wrote chan struct{} // signalled after every write
	done  chan struct{} // closed when the process has exited
	err   error         // its exit status, once done is closed
	addr  string        // a daosd's listen address
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	n, err := p.out.Write(b)
	p.mu.Unlock()
	select {
	case p.wrote <- struct{}{}:
	default:
	}
	return n, err
}

func (p *proc) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

func start(t *testing.T, path string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(path, args...), wrote: make(chan struct{}, 1), done: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = p, p
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	t.Cleanup(p.kill)
	return p
}

// startDaosd starts a daosd on addr (port 0 picks a free one) and waits
// until it is listening.
func startDaosd(t *testing.T, path, addr string, args ...string) *proc {
	t.Helper()
	p := start(t, path, append([]string{"-addr", addr}, args...)...)
	p.addr = p.waitFor(t, regexp.MustCompile(`listening on http://(\S+) `))[1]
	return p
}

// waitFor blocks until the process's output matches re and returns the
// match, failing the test if the process exits or a minute passes first.
func (p *proc) waitFor(t *testing.T, re *regexp.Regexp) []string {
	t.Helper()
	timeout := time.After(time.Minute)
	for exited := false; ; {
		if m := re.FindStringSubmatch(p.String()); m != nil {
			return m
		}
		if exited {
			t.Fatalf("%s exited (%v) before printing %q:\n%s", p.cmd.Path, p.err, re, p)
		}
		select {
		case <-p.wrote:
		case <-p.done:
			exited = true
		case <-timeout:
			t.Fatalf("%s printed no %q within a minute:\n%s", p.cmd.Path, re, p)
		}
	}
}

// wait waits for the process to exit and returns its output and status.
func (p *proc) wait() (string, error) {
	<-p.done
	return p.String(), p.err
}

// kill SIGKILLs the process and waits for it to exit.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// stop SIGTERMs the process and returns its output once it has exited.
func (p *proc) stop(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out, err := p.wait()
	if err != nil {
		t.Errorf("%s: %v", p.cmd.Path, err)
	}
	return out
}
