package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"

	"provmin/internal/apps/deletion"
	"provmin/internal/apps/prob"
	"provmin/internal/apps/trust"
	"provmin/internal/db"
	"provmin/internal/eval"
	"provmin/internal/minimize"
	"provmin/internal/persist"
	"provmin/internal/query"
)

// answer is what a read returns, reduced to what the checker compares: a
// digest of the answer tuples (with provenance) or a number.
type answer struct {
	digest [32]byte
	num    float64
}

// record is one completed (or failed) request.
type record struct {
	op  *Op
	err string // non-empty: transport error, timeout or non-2xx status
	// version is the instance generation a response reports (hasVersion).
	version    uint64
	hasVersion bool
	// floor is the highest acknowledged version of the instance when the
	// read was sent; ceil bounds the versions that could have been applied
	// when its response arrived.
	floor, ceil uint64
	got         answer
	adjuncts    int // /core: adjuncts of the minimized query
}

// tupleOut mirrors the server's wire form of one annotated tuple.
type tupleOut struct {
	Tuple      []string `json:"tuple"`
	Provenance string   `json:"provenance"`
}

// tuplesDigest hashes a result in the server's wire encoding.
func tuplesDigest(res *eval.Result) [32]byte {
	out := make([]tupleOut, 0, res.Len())
	for _, t := range res.Tuples() {
		out = append(out, tupleOut{Tuple: t.Tuple, Provenance: t.Prov.String()})
	}
	return sha256.Sum256(mustJSON(out))
}

// deletionDigest hashes a deletion-propagation answer.
func deletionDigest(survivors, lost [][]string) [32]byte {
	var b strings.Builder
	for _, part := range [][][]string{survivors, lost} {
		for _, t := range part {
			b.WriteString(strings.Join(t, "\x1f"))
			b.WriteByte('\x1e')
		}
		b.WriteByte('\x1d')
	}
	return sha256.Sum256([]byte(b.String()))
}

func asStrings(ts []db.Tuple) [][]string {
	out := make([][]string, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out
}

// Checker computes expected answers in process with the repository's own
// eval, minimize and apps packages, over the instance state a
// response claims to reflect: the initial facts plus every acknowledged
// ingest up to its version.
type Checker struct {
	w       *Workload
	base    []*db.Instance
	queries []*query.UCQ

	mu   sync.Mutex
	mins map[int]*query.UCQ
	memo map[string]answer
	// v0 is each instance's version after creation; acks maps a version
	// to the facts of the ingest that produced it; tainted instances had
	// an ingest fail, so their state is unknown.
	v0      []uint64
	acks    []map[uint64][]persist.Fact
	tainted []bool
}

func newChecker(w *Workload) (*Checker, error) {
	c := &Checker{
		w:       w,
		mins:    map[int]*query.UCQ{},
		memo:    map[string]answer{},
		v0:      make([]uint64, len(w.IDs)),
		acks:    make([]map[uint64][]persist.Fact, len(w.IDs)),
		tainted: make([]bool, len(w.IDs)),
	}
	for i, text := range w.Texts {
		d, err := db.ParseInstance(text)
		if err != nil {
			return nil, fmt.Errorf("instance %s: %w", w.IDs[i], err)
		}
		c.base = append(c.base, d)
		c.acks[i] = map[uint64][]persist.Fact{}
	}
	for _, text := range w.Queries {
		u, err := query.ParseUnion(text)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", text, err)
		}
		c.queries = append(c.queries, u)
	}
	return c, nil
}

// addAcks registers the acknowledged ingests among recs.
func (c *Checker) addAcks(recs []*record) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range recs {
		if !r.op.IsWrite() {
			continue
		}
		if r.err != "" || !r.hasVersion {
			c.tainted[r.op.Inst] = true
			continue
		}
		c.acks[r.op.Inst][r.version] = r.op.Facts
	}
}

// state rebuilds an instance at version v, or reports that no
// acknowledged history reaches v.
func (c *Checker) state(inst int, v uint64) (*db.Instance, error) {
	c.mu.Lock()
	v0, acks := c.v0[inst], c.acks[inst]
	var facts [][]persist.Fact
	for ver := v0 + 1; ver <= v; ver++ {
		f, ok := acks[ver]
		if !ok {
			c.mu.Unlock()
			return nil, fmt.Errorf("no acknowledged ingest produced version %d", ver)
		}
		facts = append(facts, f)
	}
	c.mu.Unlock()
	if v < v0 {
		return nil, fmt.Errorf("version %d precedes the created version %d", v, v0)
	}
	if len(facts) == 0 {
		return c.base[inst], nil
	}
	d := c.base[inst].Clone()
	for _, batch := range facts {
		for _, f := range batch {
			if err := persist.ApplyFact(d, f); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

func (c *Checker) minimized(q int) *query.UCQ {
	c.mu.Lock()
	m, ok := c.mins[q]
	c.mu.Unlock()
	if !ok {
		m = minimize.MinProv(c.queries[q])
		c.mu.Lock()
		c.mins[q] = m
		c.mu.Unlock()
	}
	return m
}

// expect returns the answer op must get at version v, memoized.
func (c *Checker) expect(op *Op, v uint64) (answer, error) {
	kind := op.Kind
	if kind == "direct" {
		// Theorem 5.1 computed from the polynomials must equal the core
		// realized by the p-minimal query (Theorem 4.6), byte for byte.
		kind = "core"
	}
	key := fmt.Sprintf("%s|%d|%d|%d|%v|%v", kind, op.Inst, op.Q, v, op.Tuple, op.Deleted)
	c.mu.Lock()
	a, ok := c.memo[key]
	c.mu.Unlock()
	if ok {
		return a, nil
	}
	d, err := c.state(op.Inst, v)
	if err != nil {
		return answer{}, err
	}
	u := c.queries[op.Q]
	if kind == "core" {
		u = c.minimized(op.Q)
	}
	res, err := eval.EvalUCQ(u, d)
	if err != nil {
		return answer{}, err
	}
	switch kind {
	case "query", "core":
		a.digest = tuplesDigest(res)
	case "prob":
		p, _ := res.Lookup(db.Tuple(op.Tuple))
		if a.num, err = prob.Exact(p, func(string) float64 { return probDefault }); err != nil {
			return answer{}, err
		}
	case "trust":
		p, _ := res.Lookup(db.Tuple(op.Tuple))
		a.num = trust.Cost(p, func(string) float64 { return trustDefault })
	case "deletion":
		deleted := map[string]bool{}
		for _, t := range op.Deleted {
			deleted[t] = true
		}
		surv, lost := deletion.Propagate(res, deleted)
		a.digest = deletionDigest(asStrings(surv), asStrings(lost))
	default:
		return answer{}, fmt.Errorf("no oracle for %q", kind)
	}
	c.mu.Lock()
	c.memo[key] = a
	c.mu.Unlock()
	return a, nil
}

// precompute fills the memo for ops at each instance's created version,
// on workers goroutines. Read-only workloads call it before timing starts.
func (c *Checker) precompute(ops []Op, workers int) error {
	seen := map[string]bool{}
	var todo []*Op
	for i := range ops {
		op := &ops[i]
		k := fmt.Sprintf("%s|%d|%d", op.Kind, op.Inst, op.Q)
		if op.Kind == "direct" {
			k = fmt.Sprintf("core|%d|%d", op.Inst, op.Q)
		}
		if !seen[k] {
			seen[k] = true
			todo = append(todo, op)
		}
	}
	return parallel(len(todo), workers, func(i int) error {
		_, err := c.expect(todo[i], c.v0[todo[i].Inst])
		return err
	})
}

// parallel runs fn(0..n-1) on up to workers goroutines and returns the
// first error.
func parallel(n, workers int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		next  int
	)
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// verify checks every successful read against the oracle, every read's
// version against the acknowledged floor, and every core/direct pair
// against each other. It returns one line per mismatch, sorted.
func (c *Checker) verify(recs []*record, workers int) []string {
	c.addAcks(recs)
	var (
		mu  sync.Mutex
		bad []string
	)
	report := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	_ = parallel(len(recs), workers, func(i int) error {
		r := recs[i]
		if r.err != "" || r.op.IsWrite() {
			return nil
		}
		c.mu.Lock()
		tainted := c.tainted[r.op.Inst]
		c.mu.Unlock()
		if tainted {
			return nil
		}
		id := c.w.IDs[r.op.Inst]
		if r.hasVersion {
			if r.version < r.floor {
				report("%s %s: version %d older than acknowledged %d", r.op.Kind, id, r.version, r.floor)
				return nil
			}
			want, err := c.expect(r.op, r.version)
			if err != nil {
				report("%s %s at version %d: %v", r.op.Kind, id, r.version, err)
			} else if want != r.got {
				report("%s %s at version %d: answer differs from the oracle (%s)", r.op.Kind, id, r.version, queryOf(c, r.op))
			}
			return nil
		}
		// Responses without a version must match the oracle at some
		// version the instance can have had while the read was in flight.
		for v := r.floor; v <= r.ceil; v++ {
			want, err := c.expect(r.op, v)
			if err == nil && want == r.got {
				return nil
			}
		}
		report("%s %s: answer matches no version in [%d,%d] (%s)", r.op.Kind, id, r.floor, r.ceil, queryOf(c, r.op))
		return nil
	})
	// A core response and its direct=true repeat must agree byte for byte.
	pairs := map[int][]*record{}
	for _, r := range recs {
		if r.op.Pair != 0 && r.err == "" {
			pairs[r.op.Pair] = append(pairs[r.op.Pair], r)
		}
	}
	for p, rs := range pairs {
		if len(rs) == 2 && rs[0].got != rs[1].got {
			report("pair %d: direct=true core differs from the minimized core", p)
		}
	}
	sort.Strings(bad)
	return bad
}

func queryOf(c *Checker, op *Op) string { return c.w.Queries[op.Q] }

// readResp is the union of the read endpoints' response fields the
// checker needs; json.RawMessage keeps the tuples in wire form.
type readResp struct {
	Version     *uint64         `json:"version"`
	Minimized   string          `json:"minimized"`
	Tuples      json.RawMessage `json:"tuples"`
	Probability *float64        `json:"probability"`
	Value       *float64        `json:"value"`
	Survivors   [][]string      `json:"survivors"`
	Lost        [][]string      `json:"lost"`
}

// parseRead fills rec from a read response body.
func parseRead(rec *record, body []byte) error {
	var r readResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	if r.Version != nil {
		rec.version, rec.hasVersion = *r.Version, true
	}
	switch rec.op.Kind {
	case "query", "core", "direct":
		if r.Tuples == nil {
			return fmt.Errorf("response has no tuples")
		}
		rec.got.digest = sha256.Sum256(r.Tuples)
		if r.Minimized != "" {
			rec.adjuncts = strings.Count(r.Minimized, "\n") + 1
		}
	case "prob":
		if r.Probability == nil {
			return fmt.Errorf("response has no probability")
		}
		rec.got.num = *r.Probability
	case "trust":
		if r.Value == nil {
			return fmt.Errorf("response has no value")
		}
		rec.got.num = *r.Value
	case "deletion":
		rec.got.digest = deletionDigest(r.Survivors, r.Lost)
	}
	return nil
}

// parseAck fills rec from an ingest acknowledgement.
func parseAck(rec *record, body []byte) error {
	var r struct {
		Instance struct {
			Version *uint64 `json:"version"`
		} `json:"instance"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode ack: %w", err)
	}
	if r.Instance.Version == nil {
		return fmt.Errorf("ack has no version")
	}
	rec.version, rec.hasVersion = *r.Instance.Version, true
	return nil
}
