package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// recovery is what the SIGKILL-and-restart check of a durable workload
// measured.
type recovery struct {
	recs      []*record
	seconds   float64 // SIGKILL until the first verified read
	replayMs  float64 // the node's own persist_replay_duration_ms
	diskBytes int64   // data-dir bytes before the kill
}

// recoverNode measures disk use, SIGKILLs the durable node, restarts it on
// the same data dir and port, times the first read that verifies, and then
// reads every instance's /core for the checker.
func recoverNode(ctx context.Context, h *Harness, dep *deployment, w *Workload, chk *Checker, r *Runner) (*recovery, error) {
	node := dep.nodes[0]
	out := &recovery{}
	var err error
	if out.diskBytes, err = dirBytes(filepath.Join(dep.dir, "n0")); err != nil {
		return nil, err
	}
	first := w.finish(Op{Kind: "core", Inst: 0, Q: 0}, w.Queries[0])
	acked := r.acked[0].Load()
	want, err := chk.expect(&first, acked)
	if err != nil {
		return nil, fmt.Errorf("recovery oracle: %w", err)
	}

	start := time.Now()
	node.Kill()
	if err := h.Restart(node); err != nil {
		return nil, err
	}
	r.client.CloseIdleConnections()
	if err := waitHealthy(ctx, node, time.Minute); err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	for {
		rec := r.do(ctx, &first)
		if rec.err == "" {
			out.recs = append(out.recs, rec)
			if rec.version != acked || rec.got != want {
				return nil, fmt.Errorf("first read after restart: version %d (acknowledged %d), answer matches oracle: %t",
					rec.version, acked, rec.got == want)
			}
			break
		}
		if time.Since(start) > time.Minute || ctx.Err() != nil {
			return nil, fmt.Errorf("no successful read after restart: %s", rec.err)
		}
		time.Sleep(time.Millisecond)
	}
	out.seconds = time.Since(start).Seconds()

	var ops []Op
	for i := range w.IDs {
		for q := range w.Queries {
			ops = append(ops, w.finish(Op{Kind: "core", Inst: i, Q: q}, w.Queries[q]))
		}
	}
	out.recs = append(out.recs, r.runAll(ctx, ops).recs...)
	x, err := scrape(ctx, r.client, node.URL)
	if err != nil {
		return nil, err
	}
	out.replayMs = x["persist_replay_duration_ms"]
	return out, nil
}
