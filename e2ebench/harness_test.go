package main

import (
	"context"
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for provmind: started with
// E2EBENCH_FAKE_SERVER=1 it answers /healthz and fails every other
// request, so a deployment against it starts and then fails.
func TestMain(m *testing.M) {
	if os.Getenv("E2EBENCH_FAKE_SERVER") == "1" {
		fs := flag.NewFlagSet("fake", flag.ContinueOnError)
		addr := fs.String("addr", "", "")
		_ = fs.Parse(os.Args[1:])
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
		mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "fake server", http.StatusInternalServerError)
		})
		if err := http.ListenAndServe(*addr, mux); err != nil {
			os.Exit(3)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestFailedRunLeavesNoProcessOrPort(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	binDir := t.TempDir()
	for _, name := range []string{"provmind", "provrouter"} {
		if err := os.Symlink(self, filepath.Join(binDir, name)); err != nil {
			t.Fatal(err)
		}
	}
	t.Setenv("E2EBENCH_FAKE_SERVER", "1")

	w, err := newWorkload("routed-hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newHarness(filepath.Join(t.TempDir(), "logs"))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dep, _, err := deploy(ctx, h, binDir, w, filepath.Join(t.TempDir(), "d0"), 2)
	if err == nil {
		t.Fatal("deploy against a failing server succeeded")
	}
	procs := dep.procs()
	if len(procs) != 3 {
		t.Fatalf("started %d processes before failing, want 3 (two nodes and the router)", len(procs))
	}
	h.Close() // what run defers on every exit path

	for _, p := range procs {
		if err := syscall.Kill(p.PID(), 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("%s (pid %d) still exists after Close: %v", p.Name, p.PID(), err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p.Port))
		if err != nil {
			t.Errorf("%s port %d still bound after Close: %v", p.Name, p.Port, err)
			continue
		}
		ln.Close()
	}
	if _, err := h.Start("late", self, 0); err == nil {
		t.Error("a closed harness started a process")
	}
}

func TestRestartKeepsPort(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("E2EBENCH_FAKE_SERVER", "1")
	h, err := newHarness(filepath.Join(t.TempDir(), "logs"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	ctx := context.Background()
	p, err := h.Start("node", self, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitHealthy(ctx, p, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	first := p.PID()
	p.Kill()
	if !p.Exited() {
		t.Fatal("Kill returned before the process was reaped")
	}
	if err := h.Restart(p); err != nil {
		t.Fatal(err)
	}
	if err := waitHealthy(ctx, p, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if p.PID() == first {
		t.Fatal("restart reused the killed process")
	}
}
