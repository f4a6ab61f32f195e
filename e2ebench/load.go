package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// requestTimeout bounds one request. A request that times out is a
// failure, and its latency is recorded as this bound: it missed any limit.
const requestTimeout = 10 * time.Second

// Runner sends ops to one entry point (a node or the router) over at most
// conns connections and records every outcome.
type Runner struct {
	w      *Workload
	base   string
	conns  int
	client *http.Client

	// Per instance: ingests are serialized (one in flight at a time), so
	// each acknowledged ingest produces exactly the version it reports.
	instMu   []sync.Mutex
	acked    []atomic.Uint64
	inflight []atomic.Int64

	respBytes atomic.Int64
}

func newRunner(w *Workload, base string, conns int, v0 []uint64) *Runner {
	r := &Runner{
		w:     w,
		base:  base,
		conns: conns,
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		instMu:   make([]sync.Mutex, len(w.IDs)),
		acked:    make([]atomic.Uint64, len(w.IDs)),
		inflight: make([]atomic.Int64, len(w.IDs)),
	}
	for i, v := range v0 {
		r.acked[i].Store(v)
	}
	return r
}

func (r *Runner) close() { r.client.CloseIdleConnections() }

// do sends one op and returns its record.
func (r *Runner) do(ctx context.Context, op *Op) *record {
	rec := &record{op: op}
	inst := op.Inst
	if op.IsWrite() {
		r.instMu[inst].Lock()
		defer r.instMu[inst].Unlock()
		r.inflight[inst].Add(1)
		defer r.inflight[inst].Add(-1)
	} else {
		rec.floor = r.acked[inst].Load()
	}
	body, err := r.post(ctx, op.Path, op.Body)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	if op.IsWrite() {
		if err := parseAck(rec, body); err != nil {
			rec.err = err.Error()
			return rec
		}
		for {
			cur := r.acked[inst].Load()
			if rec.version <= cur || r.acked[inst].CompareAndSwap(cur, rec.version) {
				break
			}
		}
		return rec
	}
	r.respBytes.Add(int64(len(body)))
	// Load in-flight before acknowledged: an ack landing in between can
	// only raise the bound, never lower it below what was applied.
	pending := uint64(r.inflight[inst].Load())
	rec.ceil = r.acked[inst].Load() + pending
	if err := parseRead(rec, body); err != nil {
		rec.err = err.Error()
	}
	return rec
}

// post sends a JSON body and returns the 2xx response body.
func (r *Runner) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// phase is what one load phase measured.
type phase struct {
	recs    []*record
	readMs  []float64 // latency per read, failures at requestTimeout
	writeMs []float64
	lagMs   []float64       // open loop: how late the generator sent each op
	doneAt  []time.Duration // closed loop: when each successful op completed
	ok      int
	elapsed time.Duration
}

// merge adds the records and samples of q, a later slice of the same
// phase, to p.
func (p *phase) merge(q *phase) {
	p.recs = append(p.recs, q.recs...)
	p.readMs = append(p.readMs, q.readMs...)
	p.writeMs = append(p.writeMs, q.writeMs...)
	p.lagMs = append(p.lagMs, q.lagMs...)
	p.ok += q.ok
	p.elapsed += q.elapsed
}

func (p *phase) add(rec *record, lat time.Duration) {
	p.recs = append(p.recs, rec)
	if rec.err != "" {
		lat = requestTimeout
	} else {
		p.ok++
	}
	ms := float64(lat) / float64(time.Millisecond)
	if rec.op.IsWrite() {
		p.writeMs = append(p.writeMs, ms)
	} else {
		p.readMs = append(p.readMs, ms)
	}
}

// arrivals returns seeded Poisson send offsets at rate ops/s over d.
func arrivals(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// openLoop sends ops[i] at start+at[i] regardless of completions. Each
// request is timed from its scheduled send time, so a stall also charges
// the requests queued behind it. When the workload splits connections,
// reads and writes queue separately, each on half of them.
func (r *Runner) openLoop(ctx context.Context, ops []Op, at []time.Duration) *phase {
	p := &phase{}
	var mu sync.Mutex
	// Each queue is sized to the number of sends: the dispatcher never blocks.
	reads := make(chan int, len(ops))
	writes := reads
	readers := r.conns
	if r.w.SplitConns && r.conns >= 2 {
		writes = make(chan int, len(ops))
		readers = r.conns - r.conns/2
	}
	start := time.Now().Add(10 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < r.conns; c++ {
		due := reads
		if c >= readers {
			due = writes
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				rec := r.do(ctx, &ops[i])
				lat := time.Since(start.Add(at[i]))
				mu.Lock()
				p.add(rec, lat)
				mu.Unlock()
			}
		}()
	}
	for i := range ops {
		sched := start.Add(at[i])
		if d := time.Until(sched); d > 0 {
			time.Sleep(d)
		}
		lag := time.Since(sched)
		p.lagMs = append(p.lagMs, float64(lag)/float64(time.Millisecond))
		if ops[i].IsWrite() {
			writes <- i
		} else {
			reads <- i
		}
		if ctx.Err() != nil {
			break
		}
	}
	close(reads)
	if writes != reads {
		close(writes)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// closedLoop runs r.conns clients, each sending its next op as soon as the
// previous one completes, for d.
func (r *Runner) closedLoop(ctx context.Context, next func() *Op, d time.Duration) *phase {
	p := &phase{}
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				op := next()
				t0 := time.Now()
				rec := r.do(ctx, op)
				done := time.Now()
				mu.Lock()
				p.add(rec, done.Sub(t0))
				if rec.err == "" {
					p.doneAt = append(p.doneAt, done.Sub(start))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	return p
}

// rateWindow is the length of the closed-loop windows whose median rate
// is peak_rps. The median, unlike the phase's mean rate, does not move
// when another process takes the cores for a second or two.
const rateWindow = 500 * time.Millisecond

// windowRates returns the closed loop's successful completions per second
// in each whole rateWindow, or its mean rate if it was shorter than one.
func (p *phase) windowRates() []float64 {
	n := int(p.elapsed / rateWindow)
	if n == 0 {
		return []float64{ratio(float64(p.ok), p.elapsed.Seconds())}
	}
	rates := make([]float64, n)
	for _, t := range p.doneAt {
		if k := int(t / rateWindow); k < n {
			rates[k]++
		}
	}
	for i := range rates {
		rates[i] /= rateWindow.Seconds()
	}
	return rates
}

// runAll sends ops in closed loop until all are done (warm-up and checks).
func (r *Runner) runAll(ctx context.Context, ops []Op) *phase {
	var (
		mu sync.Mutex
		i  int
	)
	next := func() *Op {
		mu.Lock()
		defer mu.Unlock()
		if i >= len(ops) {
			return nil
		}
		i++
		return &ops[i-1]
	}
	p := &phase{}
	var pmu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := next(); op != nil && ctx.Err() == nil; op = next() {
				t0 := time.Now()
				rec := r.do(ctx, op)
				lat := time.Since(t0)
				pmu.Lock()
				p.add(rec, lat)
				pmu.Unlock()
			}
		}()
	}
	wg.Wait()
	return p
}
