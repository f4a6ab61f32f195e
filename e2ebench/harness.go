package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// Harness owns the server processes of one run. Every process it starts is
// killed and reaped by Close, which callers defer on every exit path; the
// children also carry a parent-death signal, so they die with the benchmark
// even when it is itself killed.
type Harness struct {
	logDir string

	mu     sync.Mutex
	procs  []*Proc
	closed bool
}

// Proc is one started server process.
type Proc struct {
	Name string
	URL  string
	Port int
	bin  string
	args []string
	log  string

	cmd  *exec.Cmd
	done chan struct{}
}

func newHarness(logDir string) (*Harness, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	return &Harness{logDir: logDir}, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// Start launches bin with args plus a listen address on port (a free port
// when 0) and returns once the process runs; it does not wait for health.
func (h *Harness) Start(name, bin string, port int, args ...string) (*Proc, error) {
	if port == 0 {
		var err error
		if port, err = freePort(); err != nil {
			return nil, err
		}
	}
	p := &Proc{
		Name: name,
		Port: port,
		URL:  "http://127.0.0.1:" + strconv.Itoa(port),
		bin:  bin,
		args: args,
		log:  filepath.Join(h.logDir, name+".log"),
	}
	return p, h.launch(p)
}

func (h *Harness) launch(p *Proc) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return errors.New("harness closed")
	}
	logf, err := os.OpenFile(p.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close()
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(p.Port)}, p.args...)
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.Name, err)
	}
	p.cmd = cmd
	p.done = make(chan struct{})
	go func(done chan struct{}) {
		_ = cmd.Wait()
		close(done)
	}(p.done)
	h.procs = append(h.procs, p)
	return nil
}

// Restart starts a killed process again with the same binary, arguments
// and port.
func (h *Harness) Restart(p *Proc) error {
	select {
	case <-p.done:
	default:
		return fmt.Errorf("restart %s: still running", p.Name)
	}
	return h.launch(p)
}

// Kill sends SIGKILL and waits until the process has been reaped.
func (p *Proc) Kill() {
	if p.cmd == nil {
		return
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// Exited reports whether the process has ended.
func (p *Proc) Exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// PID returns the process id of the current incarnation.
func (p *Proc) PID() int { return p.cmd.Process.Pid }

// Close kills and reaps every process the harness started. It is safe to
// call more than once.
func (h *Harness) Close() {
	h.mu.Lock()
	h.closed = true
	procs := h.procs
	h.procs = nil
	h.mu.Unlock()
	for _, p := range procs {
		p.Kill()
	}
}

// waitHealthy polls GET /healthz until it answers 200, the process exits,
// or the timeout passes.
func waitHealthy(ctx context.Context, p *Proc, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.Exited() {
			return fmt.Errorf("%s exited before becoming healthy (see %s)", p.Name, p.log)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %s (see %s)", p.Name, timeout, p.log)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}
}
