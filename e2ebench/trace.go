package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"provmin/internal/apps/deletion"
	"provmin/internal/cluster"
	"provmin/internal/db"
	"provmin/internal/direct"
	"provmin/internal/engine"
	"provmin/internal/eval"
	"provmin/internal/metrics"
	"provmin/internal/minimize"
	"provmin/internal/persist"
	"provmin/internal/query"
	"provmin/internal/tier"
)

// replayBudget bounds the untraced replay; the traced replay then runs
// the same number of ops.
const replayBudget = 3 * time.Second

// traceLayers are the layers the traced replay reports self time for.
var traceLayers = []string{"loadgen", "cluster", "server", "query", "engine", "minimize", "eval", "direct", "db", "persist", "tier"}

// span is one timed call at a layer boundary.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the replay started
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. When off, begin and end do nothing, so
// the same replay code measures the untraced baseline.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stack []int
}

func (t *tracer) begin(layer, name string) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// leaf records a span that may come from another goroutine (the engine's
// janitor calling the cold tier): it hangs under the span open at its
// start but never becomes a parent itself.
func (t *tracer) leaf(layer, name string, start time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Layer: layer, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(time.Since(t.t0))})
}

// call runs fn inside a span.
func (t *tracer) call(layer, name string, fn func() error) error {
	id := t.begin(layer, name)
	err := fn()
	t.end(id)
	return err
}

// tracedBackend records a tier span around every cold-tier call.
type tracedBackend struct {
	tier.SnapshotBackend
	t *tracer
}

func (b tracedBackend) Put(ctx context.Context, id string, data []byte) error {
	defer b.t.leaf("tier", "tier.Put", time.Now())
	return b.SnapshotBackend.Put(ctx, id, data)
}

func (b tracedBackend) Get(ctx context.Context, id string) ([]byte, error) {
	defer b.t.leaf("tier", "tier.Get", time.Now())
	return b.SnapshotBackend.Get(ctx, id)
}

func (b tracedBackend) Delete(ctx context.Context, id string) error {
	defer b.t.leaf("tier", "tier.Delete", time.Now())
	return b.SnapshotBackend.Delete(ctx, id)
}

// replay is one in-process run of a workload's stream: engines configured
// like the workload's nodes, a mirror of every instance for direct layer
// calls, and the tracer.
type replay struct {
	w       *Workload
	t       *tracer
	engines []*engine.Engine
	ring    *cluster.Ring
	mirror  []*db.Instance
	log     *persist.Log // the workload's sync mode, for (*Log).Commit spans
	closers []func()

	// Counts from the direct eval calls.
	evals, tuplesOut, provTerms int
}

func newReplay(w *Workload, t *tracer, dir string) (*replay, error) {
	rp := &replay{w: w, t: t}
	fail := func(err error) (*replay, error) {
		rp.close()
		return nil, err
	}
	if w.Durable {
		lg, err := persist.Open(persist.Options{Dir: filepath.Join(dir, "commit-log"), Sync: persist.SyncAlways})
		if err != nil {
			return fail(err)
		}
		rp.log = lg
		rp.closers = append(rp.closers, func() { _ = lg.Close() })
	}
	var names []string
	for k := 0; k < w.Nodes; k++ {
		names = append(names, fmt.Sprintf("n%d", k))
		cfg := engine.Config{Metrics: metrics.NewRegistry()}
		if w.Durable {
			lg, err := persist.Open(persist.Options{Dir: filepath.Join(dir, names[k])})
			if err != nil {
				return fail(err)
			}
			cfg.Persist = lg
		}
		if w.TierBudget > 0 {
			fs, err := tier.NewFSBackend(filepath.Join(dir, "cold"))
			if err != nil {
				return fail(err)
			}
			cfg.Backend = tracedBackend{fs, t}
			cfg.ResidentBudgetBytes = w.TierBudget
		}
		e := engine.New(cfg)
		rp.engines = append(rp.engines, e)
		rp.closers = append(rp.closers, func() {
			e.Close()
			if cfg.Persist != nil {
				_ = cfg.Persist.Close()
			}
		})
	}
	ring, err := cluster.BuildRing(names, 0)
	if err != nil {
		return fail(err)
	}
	rp.ring = ring
	root := t.begin("loadgen", "setup")
	defer t.end(root)
	for i, id := range w.IDs {
		var d *db.Instance
		if err := t.call("db", "db.ParseInstance", func() (err error) {
			d, err = db.ParseInstance(w.Texts[i])
			return err
		}); err != nil {
			return fail(err)
		}
		rp.mirror = append(rp.mirror, d)
		e := rp.engine(i)
		if err := t.call("engine", "engine.CreateInstanceWithID", func() error {
			_, err := e.CreateInstanceWithID(id, w.Texts[i])
			return err
		}); err != nil {
			return fail(err)
		}
	}
	return rp, nil
}

func (rp *replay) close() {
	for i := len(rp.closers) - 1; i >= 0; i-- {
		rp.closers[i]()
	}
}

// engine returns the engine owning instance i (the ring owner when the
// workload is routed).
func (rp *replay) engine(i int) *engine.Engine {
	if len(rp.engines) == 1 {
		return rp.engines[0]
	}
	var owner string
	_ = rp.t.call("cluster", "cluster.Ring.Owner", func() error {
		owner = rp.ring.Owner(rp.w.IDs[i])
		return nil
	})
	var k int
	fmt.Sscanf(owner, "n%d", &k)
	return rp.engines[k]
}

// evalDirect runs eval.EvalUCQOpts on the mirror and counts its output.
func (rp *replay) evalDirect(u *query.UCQ, inst int) (*eval.Result, error) {
	var res *eval.Result
	err := rp.t.call("eval", "eval.EvalUCQOpts", func() (err error) {
		res, err = eval.EvalUCQOpts(u, rp.mirror[inst], eval.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	rp.evals++
	rp.tuplesOut += res.Len()
	rp.provTerms += res.TotalProvenanceSize()
	return res, nil
}

// encode is the server's JSON encode of a result, Polynomial.String
// included.
func (rp *replay) encode(res *eval.Result) {
	rp.t.call("server", "server.encode", func() error {
		_ = tuplesDigest(res)
		return nil
	})
}

// do replays one op through the layer functions and the engine.
func (rp *replay) do(ctx context.Context, op *Op) error {
	root := rp.t.begin("loadgen", "op."+op.Kind)
	defer rp.t.end(root)
	e := rp.engine(op.Inst)
	id := rp.w.IDs[op.Inst]
	if op.IsWrite() {
		var req struct {
			Facts []persist.Fact `json:"facts"`
		}
		if err := rp.t.call("server", "server.decode", func() error { return json.Unmarshal(op.Body, &req) }); err != nil {
			return err
		}
		if err := rp.t.call("engine", "engine.Ingest", func() error { return e.Ingest(id, req.Facts) }); err != nil {
			return err
		}
		if rp.log != nil {
			if err := rp.t.call("persist", "persist.Log.Commit", func() error {
				_, err := rp.log.Commit(persist.Record{Op: persist.OpIngest, ID: id, Facts: req.Facts}, nil)
				return err
			}); err != nil {
				return err
			}
		}
		return rp.t.call("db", "persist.ApplyFact", func() error {
			for _, f := range req.Facts {
				if err := persist.ApplyFact(rp.mirror[op.Inst], f); err != nil {
					return err
				}
			}
			return nil
		})
	}

	var req readBody
	if err := rp.t.call("server", "server.decode", func() error { return json.Unmarshal(op.Body, &req) }); err != nil {
		return err
	}
	var u *query.UCQ
	if err := rp.t.call("query", "query.ParseUnion", func() (err error) {
		u, err = query.ParseUnion(req.Query)
		return err
	}); err != nil {
		return err
	}
	_ = rp.t.call("engine", "engine.CanonicalKey", func() error {
		_ = engine.CanonicalKey(u)
		return nil
	})
	var served *eval.Result
	var err error
	switch op.Kind {
	case "query":
		err = rp.t.call("engine", "engine.Query", func() error {
			out, err := e.Query(ctx, id, u)
			if err == nil {
				served = out.Result
			}
			return err
		})
		if err == nil {
			_, err = rp.evalDirect(u, op.Inst)
		}
	case "core":
		var min *query.UCQ
		_ = rp.t.call("minimize", "minimize.MinProv", func() error {
			min = minimize.MinProv(u)
			return nil
		})
		err = rp.t.call("engine", "engine.Core", func() error {
			out, err := e.Core(ctx, id, u)
			if err == nil {
				served = out.Result
			}
			return err
		})
		if err == nil {
			_, err = rp.evalDirect(min, op.Inst)
		}
	case "direct":
		err = rp.t.call("engine", "engine.CoreDirect", func() (err error) {
			served, err = e.CoreDirect(ctx, id, u)
			return err
		})
		if err == nil {
			var full *eval.Result
			if full, err = rp.evalDirect(u, op.Inst); err == nil {
				err = rp.t.call("direct", "direct.CoreResult", func() error {
					_, err := direct.CoreResult(full, rp.mirror[op.Inst], u.Consts())
					return err
				})
			}
		}
	case "prob":
		err = rp.t.call("engine", "engine.Probability", func() error {
			_, err := e.Probability(ctx, id, u, db.Tuple(req.Tuple), engine.ProbOpts{Default: req.Default})
			return err
		})
	case "trust":
		err = rp.t.call("engine", "engine.Trust", func() error {
			_, err := e.Trust(ctx, id, u, db.Tuple(req.Tuple), engine.TrustOpts{Default: req.Default})
			return err
		})
	case "deletion":
		err = rp.t.call("engine", "engine.Deletion", func() error {
			_, err := e.Deletion(ctx, id, u, req.Deleted)
			return err
		})
		if err == nil {
			var full *eval.Result
			if full, err = rp.evalDirect(u, op.Inst); err == nil {
				deleted := map[string]bool{}
				for _, t := range req.Deleted {
					deleted[t] = true
				}
				deletion.Propagate(full, deleted)
			}
		}
	}
	if err != nil {
		return fmt.Errorf("%s %s: %w", op.Kind, id, err)
	}
	if served != nil {
		rp.encode(served)
	}
	return nil
}

// replayOnce replays ops in order and then, while more is non-nil and the
// budget lasts, further ops drawn from more. It returns the ops it ran and
// the time spent inside them.
func replayOnce(ctx context.Context, w *Workload, t *tracer, dir string, ops []Op, more func() Op, budget time.Duration) ([]Op, time.Duration, *replay, error) {
	rp, err := newReplay(w, t, dir)
	if err != nil {
		return nil, 0, nil, err
	}
	defer rp.close()
	var busy time.Duration
	for i := 0; ctx.Err() == nil; i++ {
		if i == len(ops) {
			if more == nil || busy > budget {
				break
			}
			ops = append(ops, more())
		}
		start := time.Now()
		if err := rp.do(ctx, &ops[i]); err != nil {
			return nil, 0, nil, err
		}
		busy += time.Since(start)
	}
	return ops, busy, rp, ctx.Err()
}

// traceReplay replays the workload's warm-up and seeded stream in process,
// once untraced and once traced over the same ops, writes the spans to
// out/traces and reports per-layer self time and the tracing overhead.
func traceReplay(ctx context.Context, w *Workload, cfg config, work string) ([]metric, error) {
	fresh, err := newWorkload(w.Name, cfg.seed)
	if err != nil {
		return nil, err
	}
	ops, plain, _, err := replayOnce(ctx, fresh, &tracer{}, filepath.Join(work, "replay-plain"), fresh.Warm, fresh.Next, replayBudget)
	if err != nil {
		return nil, err
	}
	n := len(ops)
	t := &tracer{on: true, t0: time.Now()}
	_, traced, rp, err := replayOnce(ctx, fresh, t, filepath.Join(work, "replay-traced"), ops, nil, 0)
	if err != nil {
		return nil, err
	}
	progress("replayed %d ops in process: %.3fs untraced, %.3fs traced, %d spans", n, plain.Seconds(), traced.Seconds(), len(t.spans))
	if err := writeSpans(filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.Name, cfg.seed)), t.spans); err != nil {
		return nil, err
	}

	self := selfTimes(t.spans)
	var out []metric
	for _, layer := range traceLayers {
		out = append(out, metric{"trace.self_ms." + layer, float64(self[layer]) / 1e6 / float64(n), "ms", n})
	}
	out = append(out,
		metric{"trace.overhead_pct", (traced.Seconds()/plain.Seconds() - 1) * 100, "%", n},
		metric{"trace.spans", float64(len(t.spans)), "count", len(t.spans)},
	)
	mean := func(name string, scale float64) (float64, int) {
		var sum int64
		var k int
		for _, s := range t.spans {
			if s.Name == name {
				sum += s.End - s.Start
				k++
			}
		}
		return ratio(float64(sum), float64(k)) / scale, k
	}
	for _, m := range []struct{ metric, span, unit string }{
		{"server.decode_us", "server.decode", "us"},
		{"server.encode_ms", "server.encode", "ms"},
		{"query.parse_us", "query.ParseUnion", "us"},
		{"engine.canonical_us", "engine.CanonicalKey", "us"},
		{"engine.ingest_ack_ms", "engine.Ingest", "ms"},
		{"minimize.minprov_traced_ms", "minimize.MinProv", "ms"},
		{"eval.eval_traced_ms", "eval.EvalUCQOpts", "ms"},
		{"direct.core_ms", "direct.CoreResult", "ms"},
		{"persist.commit_ms", "persist.Log.Commit", "ms"},
	} {
		scale := 1e6
		if m.unit == "us" {
			scale = 1e3
		}
		v, k := mean(m.span, scale)
		out = append(out, metric{m.metric, v, m.unit, k})
	}
	out = append(out,
		metric{"eval.tuples_out", ratio(float64(rp.tuplesOut), float64(rp.evals)), "count", rp.evals},
		metric{"eval.prov_terms", ratio(float64(rp.provTerms), float64(rp.evals)), "count", rp.evals},
	)
	return out, nil
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, cur := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		out[s.Layer] += s.End - s.Start - covered
	}
	return out
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
