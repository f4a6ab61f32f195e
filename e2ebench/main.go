// Command e2ebench is the repository's end-to-end benchmark. It builds
// provmind and provrouter from the checkout, starts them on loopback,
// drives one seeded HTTP workload against them, checks every response
// against in-process answers and prints end-to-end and per-layer metrics.
// See README.md for the workloads and the metric table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// roundLength is the length of one measured round; a run has as many
// whole rounds as fit in --seconds, at least one.
const roundLength = 2500 * time.Millisecond

// openShare is the share of each round spent in the open-loop phase; the
// rest is the closed-loop phase that measures peak_rps.
const openShare = 0.6

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	out      string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for instances, queries and arrivals")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds (open loop, then closed loop)")
	flag.IntVar(&trace, "trace", 0, "1 = also run the traced in-process replay and print per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout to build and run")
	flag.StringVar(&cfg.out, "out", "", "directory for binaries, run files and traces (default $CARGO_TARGET_DIR or .bench_build)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.out == "" {
		cfg.out = os.Getenv("CARGO_TARGET_DIR")
	}
	if cfg.out == "" {
		cfg.out = ".bench_build"
	}
	if !filepath.IsAbs(cfg.out) {
		cfg.out = filepath.Join(cfg.root, cfg.out)
	}
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout, cfg.trace)
	if !res.correct {
		os.Exit(1)
	}
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	e2e       []metric
	layers    []metric
}

func (r *result) print(w *os.File, trace bool) {
	show := func(ms []metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "metric %-32s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		}
	}
	fmt.Fprintf(w, "workload %s: attempted=%d failed=%d correct=%t\n", r.workload, r.attempted, r.failed, r.correct)
	show(r.e2e)
	show(r.layers)
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]val{}
	pick := r.e2e
	if trace {
		pick = r.layers
	}
	for _, m := range pick {
		out[m.name] = val{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	fmt.Fprintln(w, string(line))
}

// finite maps NaN (no samples) to 0 so the result stays valid JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// progress logs a step with the time since the run started.
var runStart = time.Now()

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: %6.2fs %s\n", time.Since(runStart).Seconds(), fmt.Sprintf(format, args...))
}

func run(ctx context.Context, cfg config) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "cmd", "provmind")); err != nil {
		return nil, fmt.Errorf("%s is not a provmin checkout: %w", cfg.root, err)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	binDir, err := buildBinaries(cfg.root, cfg.out)
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)

	work, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	h, err := newHarness(filepath.Join(work, "logs"))
	if err != nil {
		return nil, err
	}
	defer h.Close()

	chk, err := newChecker(w)
	if err != nil {
		return nil, err
	}

	// setUp deploys the workload from scratch and records how long that
	// took. The measured deployment is the first; one more is set up and
	// torn down after each measured round, so that setup_s is the median
	// of deployments spread over the whole run rather than of a burst at
	// its start, all inside one spell of the machine's speed.
	var setups []float64
	setUp := func(k int) (*deployment, error) {
		d, took, err := deploy(ctx, h, binDir, w, filepath.Join(work, fmt.Sprintf("d%d", k)), conns)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, took.Seconds())
		return d, nil
	}
	dep, err := setUp(0)
	if err != nil {
		return nil, err
	}
	copy(chk.v0, dep.v0)
	progress("set up in %.3fs", setups[0])

	// The measured time is split into rounds of an open-loop slice and a
	// closed-loop slice, so that both phases sample the whole run: on a
	// shared machine whose speed drifts for seconds at a time, one
	// closed-loop phase at the end measured only its own stretch.
	measured := time.Duration(cfg.seconds) * time.Second
	rounds := max(1, int(measured/roundLength))
	round := measured / time.Duration(rounds)
	open := time.Duration(float64(round) * openShare)
	closed := round - open
	at := arrivals(cfg.seed*7+1, w.Rate, open*time.Duration(rounds))
	ops := make([]Op, len(at))
	for i := range ops {
		ops[i] = w.Next()
	}
	if !w.mixed() {
		// Read-only workloads: the answers for the warm-up and the
		// open-loop stream are computed before timing starts. Closed-loop
		// ops are generated as fast as the servers take them, so theirs
		// are computed after timing ends.
		if err := chk.precompute(append(append([]Op{}, w.Warm...), ops...), conns); err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
	}

	progress("oracle ready")
	r := newRunner(w, dep.entry, conns, dep.v0)
	defer r.close()
	warm := r.runAll(ctx, w.Warm)
	progress("warmed up with %d ops", len(warm.recs))

	client := r.client
	scrapeAll := func() ([]Exposition, error) {
		var xs []Exposition
		for _, p := range dep.procs() {
			x, err := scrape(ctx, client, p.URL)
			if err != nil {
				return nil, err
			}
			xs = append(xs, x)
		}
		return xs, nil
	}
	before, err := scrapeAll()
	if err != nil {
		return nil, err
	}
	bytes0 := r.respBytes.Load()
	var nmu sync.Mutex
	next := func() *Op {
		nmu.Lock()
		defer nmu.Unlock()
		op := w.Next()
		return &op
	}
	openP, closedP := &phase{}, &phase{}
	var rates []float64 // closed-loop completions per second, per window
	for k, lo := 0, 0; k < rounds && ctx.Err() == nil; k++ {
		from := open * time.Duration(k)
		hi := lo
		for hi < len(at) && at[hi] < from+open {
			hi++
		}
		slice := make([]time.Duration, hi-lo)
		for i := range slice {
			slice[i] = at[lo+i] - from
		}
		openP.merge(r.openLoop(ctx, ops[lo:hi], slice))
		lo = hi
		c := r.closedLoop(ctx, next, closed)
		rates = append(rates, c.windowRates()...)
		closedP.merge(c)
		extra, err := setUp(k + 1)
		if err != nil {
			return nil, err
		}
		extra.stop()
	}
	after, err := scrapeAll()
	if err != nil {
		return nil, err
	}
	respBytes := r.respBytes.Load() - bytes0
	progress("measured %d open-loop and %d closed-loop ops; set up %d times, median %.3fs",
		len(openP.recs), len(closedP.recs), len(setups), median(append([]float64{}, setups...)))
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	var rss int64
	for _, p := range dep.procs() {
		b, err := vmHWM(p.PID())
		if err != nil {
			return nil, err
		}
		rss += b
	}

	all := append(append(append([]*record{}, warm.recs...), openP.recs...), closedP.recs...)
	rec := &recovery{}
	if w.Durable {
		chk.addAcks(all)
		if rec, err = recoverNode(ctx, h, dep, w, chk, r); err != nil {
			return nil, err
		}
		all = append(all, rec.recs...)
	}
	mismatches := chk.verify(all, conns)
	progress("checked %d responses", len(all))
	for i, m := range mismatches {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "e2ebench: ... %d more mismatches\n", len(mismatches)-20)
			break
		}
		fmt.Fprintln(os.Stderr, "e2ebench: mismatch:", m)
	}

	res := &result{workload: w.Name, correct: len(mismatches) == 0}
	for _, rc := range all {
		res.attempted++
		if rc.err != "" {
			res.failed++
		}
	}
	res.failed += len(mismatches)
	for _, rc := range all {
		if rc.err != "" {
			fmt.Fprintln(os.Stderr, "e2ebench: failed:", rc.op.Kind, w.IDs[rc.op.Inst], rc.err)
			break
		}
	}
	if n := len(openP.readMs); n < 1000 {
		fmt.Fprintf(os.Stderr, "e2ebench: only %d open-loop reads; read_p99_ms needs 1000 for 10 samples beyond it\n", n)
	}

	progress("closed-loop ops/s per %v window: %.0f", rateWindow, rates)
	peak, windows := median(append([]float64{}, rates...)), len(rates)
	res.e2e = []metric{
		{"read_p50_ms", quantile(openP.readMs, 0.5), "ms", len(openP.readMs)},
		{"peak_rps", peak, "1/s", windows},
		{"setup_s", median(setups), "s", len(setups)},
		{"peak_rss_mb", float64(rss) / (1 << 20), "MB", len(dep.procs())},
	}
	facts := chk.totalFacts()
	lay := layerInputs{
		w: w, dep: dep, before: before, after: after,
		open: openP, closed: closedP, respBytes: respBytes,
		attempted: res.attempted, failed: res.failed, facts: facts, rec: rec,
	}
	res.layers = lay.metrics()
	if cfg.trace {
		tm, err := traceReplay(ctx, w, cfg, work)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		res.layers = append(res.layers, tm...)
	}
	for i := range res.e2e {
		res.e2e[i].value = finite(res.e2e[i].value)
	}
	for i := range res.layers {
		res.layers[i].value = finite(res.layers[i].value)
	}
	sort.SliceStable(res.layers, func(i, j int) bool { return res.layers[i].name < res.layers[j].name })
	return res, nil
}
