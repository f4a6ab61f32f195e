package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// deployment is one set of running servers with the workload's instances
// loaded.
type deployment struct {
	dir    string
	nodes  []*Proc
	router *Proc
	entry  string   // URL the load goes to
	v0     []uint64 // per instance: version after creation
}

func (d *deployment) procs() []*Proc {
	if d.router == nil {
		return d.nodes
	}
	return append(append([]*Proc{}, d.nodes...), d.router)
}

// stop kills the deployment's processes and removes its files.
func (d *deployment) stop() {
	for _, p := range d.procs() {
		p.Kill()
	}
	_ = os.RemoveAll(d.dir)
}

// nodeArgs returns node k's flags: defaults except the deployment flags
// the workload names.
func nodeArgs(w *Workload, dir string, k int, peers string) []string {
	var args []string
	if w.Durable {
		args = append(args, "-data-dir", filepath.Join(dir, fmt.Sprintf("n%d", k)))
	}
	if w.Router {
		args = append(args, "-node-name", fmt.Sprintf("n%d", k), "-peers", peers)
	}
	if w.TierBudget > 0 {
		args = append(args, "-cold-dir", filepath.Join(dir, "cold"),
			"-resident-budget-bytes", strconv.FormatInt(w.TierBudget, 10))
	}
	return args
}

// deploy starts the workload's servers in dir and loads its instances. The
// returned duration runs from the first process launch until every
// instance is created and every process answers /healthz.
func deploy(ctx context.Context, h *Harness, binDir string, w *Workload, dir string, conns int) (*deployment, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d := &deployment{dir: dir}
	ports := make([]int, w.Nodes)
	var peers []string
	for k := range ports {
		p, err := freePort()
		if err != nil {
			return nil, 0, err
		}
		ports[k] = p
		peers = append(peers, fmt.Sprintf("n%d=http://127.0.0.1:%d", k, p))
	}
	peerList := strings.Join(peers, ",")

	start := time.Now()
	for k := range ports {
		p, err := h.Start(fmt.Sprintf("%s-n%d", filepath.Base(dir), k), filepath.Join(binDir, "provmind"), ports[k], nodeArgs(w, dir, k, peerList)...)
		if err != nil {
			return d, 0, err
		}
		d.nodes = append(d.nodes, p)
	}
	if w.Router {
		p, err := h.Start(filepath.Base(dir)+"-router", filepath.Join(binDir, "provrouter"), 0, "-peers", peerList)
		if err != nil {
			return d, 0, err
		}
		d.router = p
	}
	for _, p := range d.procs() {
		if err := waitHealthy(ctx, p, 30*time.Second); err != nil {
			return d, 0, err
		}
	}
	d.entry = d.procs()[len(d.procs())-1].URL
	d.v0 = make([]uint64, len(w.IDs))
	r := newRunner(w, d.entry, conns, nil)
	defer r.close()
	err := parallel(len(w.IDs), conns, func(i int) error {
		body := mustJSON(struct {
			ID      string `json:"id"`
			Initial string `json:"initial"`
		}{w.IDs[i], w.Texts[i]})
		out, err := r.post(ctx, "/instances", body)
		if err != nil {
			return fmt.Errorf("create %s: %w", w.IDs[i], err)
		}
		var info struct {
			Version uint64 `json:"version"`
		}
		if err := json.Unmarshal(out, &info); err != nil {
			return fmt.Errorf("create %s: %w", w.IDs[i], err)
		}
		d.v0[i] = info.Version
		return nil
	})
	return d, time.Since(start), err
}
