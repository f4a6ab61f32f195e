package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"provmin/internal/db"
	"provmin/internal/persist"
	"provmin/internal/query"
	"provmin/internal/workload"
)

// Op is one generated request. Everything the servers see is in Path and
// Body; the other fields tell the checker what answer to expect.
type Op struct {
	Kind    string // query, core, direct, prob, trust, deletion or ingest
	Inst    int    // index into Workload.IDs
	Q       int    // index into Workload.Queries (reads)
	Pair    int    // minprov-fresh: a core op and its direct repeat share a nonzero Pair
	Tuple   []string
	Deleted []string
	Facts   []persist.Fact
	Path    string
	Body    []byte
}

// IsWrite reports whether the op is an ingest.
func (op *Op) IsWrite() bool { return op.Kind == "ingest" }

// Workload is one traffic mix and the deployment it runs against.
type Workload struct {
	Name string
	// Rate is the nominal open-loop arrival rate in ops/s: a tenth to a
	// third of the workload's peak_rps on a 2-core machine, low enough
	// that read latency stays mostly service time when the machine slows
	// down, and fixed so that a faster or slower program is measured at
	// the same offered load.
	Rate float64
	// Nodes is the number of provmind processes; Router puts provrouter in
	// front of them.
	Nodes  int
	Router bool
	// Durable gives every node a -data-dir (default -wal-sync always).
	Durable bool
	// SplitConns gives reads and writes their own half of the open-loop
	// connections, so a read never waits at the client behind an ingest
	// that waits for fsync.
	SplitConns bool
	// Tiered gives the nodes a shared fs cold tier and this resident
	// budget per node.
	TierBudget int64

	IDs   []string // instance ids
	Texts []string // initial facts per instance, db text format
	// Queries is the query table reads index into. Query text sent to the
	// server may be a renaming of its entry (minprov-fresh).
	Queries []string
	// Warm ops run before the measured phases (filling the min-cache).
	Warm []Op

	gen func() Op
}

// Next returns the next op of the workload's seeded stream.
func (w *Workload) Next() Op { return w.gen() }

// mixed reports whether the workload writes while it reads, so expected
// answers depend on the acknowledged history and are computed after
// timing.
func (w *Workload) mixed() bool { return w.Durable || w.Router }

var workloadNames = []string{"eval-large", "minprov-fresh", "ingest-durable", "routed-hot"}

// newWorkload builds the named workload for a seed. The same name and seed
// always give the same instances, query table and op stream.
func newWorkload(name string, seed int64) (*Workload, error) {
	switch name {
	case "eval-large":
		return evalLarge(seed), nil
	case "minprov-fresh":
		return minprovFresh(seed), nil
	case "ingest-durable":
		return ingestDurable(seed), nil
	case "routed-hot":
		return routedHot(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// subRand derives an independent generator for one purpose from the seed.
func subRand(seed int64, purpose int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + purpose))
}

// --- request bodies ---

type readBody struct {
	Instance string   `json:"instance"`
	Query    string   `json:"query"`
	Direct   bool     `json:"direct,omitempty"`
	Tuple    []string `json:"tuple,omitempty"`
	Default  float64  `json:"default,omitempty"`
	Deleted  []string `json:"deleted,omitempty"`
}

// Defaults for /prob and /trust: every tag has probability 0.5 and trust
// cost 1, so results do not depend on map iteration order in the server.
const (
	probDefault  = 0.5
	trustDefault = 1
)

func mustJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // only plain structs of strings and numbers are encoded
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// finish fills Path and Body from the op's fields and the query text.
func (w *Workload) finish(op Op, text string) Op {
	id := w.IDs[op.Inst]
	switch op.Kind {
	case "ingest":
		op.Path = "/instances/" + url.PathEscape(id) + "/tuples"
		op.Body = mustJSON(struct {
			Facts []persist.Fact `json:"facts"`
		}{op.Facts})
		return op
	case "query":
		op.Path = "/query"
		op.Body = mustJSON(readBody{Instance: id, Query: text})
	case "core", "direct":
		op.Path = "/core"
		op.Body = mustJSON(readBody{Instance: id, Query: text, Direct: op.Kind == "direct"})
	case "prob":
		op.Path = "/prob"
		op.Body = mustJSON(readBody{Instance: id, Query: text, Tuple: op.Tuple, Default: probDefault})
	case "trust":
		op.Path = "/trust"
		op.Body = mustJSON(readBody{Instance: id, Query: text, Tuple: op.Tuple, Default: trustDefault})
	case "deletion":
		op.Path = "/deletion"
		op.Body = mustJSON(readBody{Instance: id, Query: text, Deleted: op.Deleted})
	default:
		panic("unknown op kind " + op.Kind)
	}
	return op
}

// --- eval-large ---

// evalLarge: two large instances of two random binary relations (1000
// values, each with exactly 10 out-edges) and anchored 3–4-atom join
// queries. A fixed out-degree gives every query of one shape the same
// number of derivations, so the seed changes which values are joined but
// not how much work a read is. The /query pool is about five times the 128-entry
// per-instance result cache, so most reads evaluate; the 16 /core queries
// per instance are warmed into the min-cache, so MinProv sits idle.
func evalLarge(seed int64) *Workload {
	const (
		nInst    = 2
		nodes    = 1000
		degree   = 10
		perQuery = 640 // distinct /query queries per instance
		perCore  = 16  // distinct /core queries per instance
	)
	w := &Workload{Name: "eval-large", Rate: 55, Nodes: 1}
	shapes := []string{
		"ans(y,z) :- R1('%[1]s',x), R1(x,y), R2(y,z)",
		"ans(x,z) :- R2('%[1]s',x), R1(x,y), R2(y,z)",
		"ans(z) :- R1('%[1]s',x), R2(x,y), R1(y,z)",
		"ans(x,z) :- R1('%[1]s',x), R2(x,y), R1(y,z), R2(z,'%[2]s'), x != z",
	}
	// /core queries carry every disequality among their variables and
	// the anchor, so MinProv returns them unchanged (one adjunct) and a
	// /core read costs what a /query read costs. Without them the p-minimal
	// forms have 15 adjuncts and take 20-100 ms to evaluate, and the few
	// /core result-cache misses alone would set read_p99_ms.
	const coreDiseqs = ", x != y, x != z, y != z, x != '%[1]s', y != '%[1]s', z != '%[1]s'"
	rng := subRand(seed, 1)
	pools := make([][]int, nInst) // per instance: query indices of /query
	cores := make([][]int, nInst)
	for i := 0; i < nInst; i++ {
		d := db.NewInstance()
		g := subRand(seed, 10+int64(i))
		regularGraph(g, d, "R1", "a", nodes, degree)
		regularGraph(g, d, "R2", "b", nodes, degree)
		w.IDs = append(w.IDs, fmt.Sprintf("el%d", i))
		w.Texts = append(w.Texts, db.FormatInstance(d))
		seen := map[string]bool{}
		for len(pools[i])+len(cores[i]) < perQuery+perCore {
			core := len(cores[i]) < perCore
			shape := shapes[rng.Intn(3)]
			if !core && len(pools[i])%8 == 7 {
				shape = shapes[3]
			}
			if core {
				shape += coreDiseqs
			}
			q := fmt.Sprintf(shape, fmt.Sprintf("d%d", rng.Intn(nodes)), fmt.Sprintf("d%d", rng.Intn(nodes)))
			if seen[q] {
				continue
			}
			seen[q] = true
			w.Queries = append(w.Queries, q)
			if core {
				cores[i] = append(cores[i], len(w.Queries)-1)
			} else {
				pools[i] = append(pools[i], len(w.Queries)-1)
			}
		}
		for _, q := range cores[i] {
			w.Warm = append(w.Warm, w.finish(Op{Kind: "core", Inst: i, Q: q}, w.Queries[q]))
		}
	}
	stream := subRand(seed, 2)
	w.gen = func() Op {
		inst := stream.Intn(nInst)
		op := Op{Kind: "query", Inst: inst}
		if stream.Float64() < 0.15 {
			op.Kind = "core"
			op.Q = cores[inst][stream.Intn(perCore)]
		} else {
			op.Q = pools[inst][stream.Intn(perQuery)]
		}
		return w.finish(op, w.Queries[op.Q])
	}
	return w
}

// regularGraph adds a binary relation over values d0..d{nodes-1} in which
// every value has exactly degree distinct successors, tagged
// <prefix>1, <prefix>2, ...
func regularGraph(rng *rand.Rand, d *db.Instance, rel, prefix string, nodes, degree int) {
	tag := 0
	for a := 0; a < nodes; a++ {
		for _, b := range rng.Perm(nodes)[:degree] {
			tag++
			d.MustAdd(rel, fmt.Sprintf("%s%d", prefix, tag), fmt.Sprintf("d%d", a), fmt.Sprintf("d%d", b))
		}
	}
}

// --- minprov-fresh ---

// minprovFresh: one small abstractly tagged instance and /core of queries
// the server has never seen: every request renames the variables of a
// base UCQ afresh, which gives a new min-cache key (CanonicalKey is not
// invariant under renaming) but the same answer, so the oracle needs only
// one MinProv per base query. Every ninth core query is repeated with
// direct=true (Theorem 5.1 cross-check), one op in ten.
func minprovFresh(seed int64) *Workload {
	w := &Workload{Name: "minprov-fresh", Rate: 60, Nodes: 1}
	// The graphs are the same for every seed up to a renaming of values
	// and tags that the seed chooses. Drawn per seed, their shape changed
	// eval's share of a read by a fifth between seeds.
	base := db.NewInstance()
	g := db.NewGenerator(basePoolSeed * 37)
	g.RandomGraph(base, "R1", 5, 8)
	g.RandomGraph(base, "R2", 5, 8)
	d := renameInstance(base, subRand(seed, 7))
	w.IDs = []string{"mf0"}
	w.Texts = []string{db.FormatInstance(d)}

	qhat := workload.QHat.Clone()
	for i := range qhat.Atoms {
		qhat.Atoms[i].Rel = "R1"
	}
	w.Queries = []string{query.Single(qhat).String(), query.Single(workload.QN(2)).String()}
	// 256 bases: as many 2- and 3-adjunct unions of 3, 4 and 5 atoms each.
	// The pool is the same for every seed. MinProv's cost varies by orders
	// of magnitude between queries and read_p99_ms is set by the costliest
	// few bases, so a pool drawn per seed made the seed, not the program,
	// set the figures. The seed chooses the stream: which bases are sent
	// in which order, the renamings and the direct=true repeats.
	rng := subRand(basePoolSeed, 3)
	for i := 0; i < 256; i++ {
		p := workload.QueryParams{
			NumAtoms: 3 + (i/2)%3, NumVars: 4, NumRels: 2, Arity: 2,
			HeadArity: 1, DiseqProb: 0.2, SelfJoinOK: true,
		}
		u := workload.RandomUCQ(rng.Int63(), 2+i%2, p)
		w.Queries = append(w.Queries, u.String())
	}
	bases := make([]*query.UCQ, len(w.Queries))
	for i, text := range w.Queries {
		bases[i] = query.MustParseUnion(text)
	}

	// The stream sends the bases in rounds, each a seeded permutation of
	// the whole pool, so that every stretch of a few hundred ops carries
	// about the same MinProv work whatever the seed.
	stream := subRand(seed, 4)
	var n, pair int
	var order []int
	var last Op
	var lastText string
	w.gen = func() Op {
		n++
		if last.Kind == "core" && pair%9 == 0 {
			op := last
			op.Kind = "direct"
			last = Op{}
			return w.finish(op, lastText)
		}
		if len(order) == 0 {
			order = stream.Perm(len(bases))
		}
		q := order[0]
		order = order[1:]
		pair++
		op := Op{Kind: "core", Q: q, Pair: pair}
		lastText = renameVars(bases[q], fmt.Sprintf("_%d", n)).String()
		last = op
		return w.finish(op, lastText)
	}
	return w
}

// basePoolSeed fixes the minprov-fresh base query pool and the shape of
// its instance.
const basePoolSeed = 1

// renameInstance returns a copy of d with its values and tags permuted by
// rng: an isomorphic instance, so queries without constants do the same
// work on it and on d.
func renameInstance(d *db.Instance, rng *rand.Rand) *db.Instance {
	var vals, tags []string
	seen := map[string]bool{}
	for _, r := range d.Relations() {
		for _, row := range r.Rows() {
			tags = append(tags, row.Tag)
			for _, v := range row.Tuple {
				if !seen[v] {
					seen[v] = true
					vals = append(vals, v)
				}
			}
		}
	}
	valOf := map[string]string{}
	for i, j := range rng.Perm(len(vals)) {
		valOf[vals[i]] = vals[j]
	}
	tagOf := map[string]string{}
	for i, j := range rng.Perm(len(tags)) {
		tagOf[tags[i]] = tags[j]
	}
	out := db.NewInstance()
	for _, r := range d.Relations() {
		for _, row := range r.Rows() {
			t := make([]string, len(row.Tuple))
			for k, v := range row.Tuple {
				t[k] = valOf[v]
			}
			out.MustAdd(r.Name, tagOf[row.Tag], t...)
		}
	}
	return out
}

// renameVars appends suffix to every variable of u.
func renameVars(u *query.UCQ, suffix string) *query.UCQ {
	out := &query.UCQ{}
	for _, q := range u.Adjuncts {
		s := query.Subst{}
		for _, v := range q.Vars() {
			s[v] = query.V(v + suffix)
		}
		out.Adjuncts = append(out.Adjuncts, q.ApplySubst(s))
	}
	return out
}

// --- ingest-durable ---

// Queries of the ingest workloads: a self-join with and without a
// disequality, both monotone, so cached results are maintained by delta
// evaluation across ingests.
var smallQueries = []string{
	"ans(x) :- R(x,y), R(y,x)",
	"ans(x,z) :- R(x,y), R(y,z), x != z",
}

// ingestState generates fresh facts per instance: tags never repeat and
// no tuple is inserted twice, so every ingest is a pure insert.
type ingestState struct {
	seen  []map[string]bool // relation and values of every fact
	count []int
}

func newIngestState(texts []string) *ingestState {
	st := &ingestState{seen: make([]map[string]bool, len(texts)), count: make([]int, len(texts))}
	for i, text := range texts {
		st.seen[i] = map[string]bool{}
		d, err := db.ParseInstance(text)
		if err != nil {
			panic(err) // the text was produced by db.FormatInstance
		}
		for _, r := range d.Relations() {
			for _, row := range r.Rows() {
				st.seen[i][r.Name+"\x1f"+row.Tuple.Key()] = true
			}
		}
	}
	return st
}

// facts returns n new facts of rel for instance inst, with values drawn
// from d0..d{domain-1}. The domain must leave room for every fact a run
// can ingest into one instance.
func (st *ingestState) facts(rng *rand.Rand, inst, n int, rel string, arity, domain int) []persist.Fact {
	var out []persist.Fact
	for len(out) < n {
		vals := make([]string, arity)
		for j := range vals {
			vals[j] = fmt.Sprintf("d%d", rng.Intn(domain))
		}
		k := rel + "\x1f" + db.Tuple(vals).Key()
		if st.seen[inst][k] {
			continue
		}
		st.seen[inst][k] = true
		st.count[inst]++
		out = append(out, persist.Fact{Rel: rel, Tag: fmt.Sprintf("w%d", st.count[inst]), Values: vals})
	}
	return out
}

// ingestDurable: 256 small instances on one durable node (-wal-sync
// always by default). Two ops in three ingest 1–4 facts into a uniformly
// chosen instance; the rest read /core of one of two fixed queries, which
// stays cached through delta maintenance. Reads and writes have their own
// open-loop connections: with nproc connections shared, one fsync stall
// held every connection and set read_p99_ms. The write share is no higher
// so that the one write connection stays about 40% busy and a run still
// has 1000 reads for read_p99_ms.
func ingestDurable(seed int64) *Workload {
	const nInst = 256
	w := &Workload{Name: "ingest-durable", Rate: 165, Nodes: 1, Durable: true, SplitConns: true, Queries: smallQueries}
	for i := 0; i < nInst; i++ {
		d := db.NewInstance()
		db.NewGenerator(seed*41+int64(i)).RandomRelation(d, "R", 2, 12, 8)
		w.IDs = append(w.IDs, fmt.Sprintf("id%d", i))
		w.Texts = append(w.Texts, db.FormatInstance(d))
		for q := range smallQueries {
			w.Warm = append(w.Warm, w.finish(Op{Kind: "core", Inst: i, Q: q}, smallQueries[q]))
		}
	}
	st := newIngestState(w.Texts)
	stream := subRand(seed, 5)
	w.gen = func() Op {
		inst := stream.Intn(nInst)
		if stream.Float64() < 2.0/3 {
			return w.finish(Op{Kind: "ingest", Inst: inst, Facts: st.facts(stream, inst, 1+stream.Intn(4), "R", 2, 24)}, "")
		}
		q := stream.Intn(len(smallQueries))
		return w.finish(Op{Kind: "core", Inst: inst, Q: q}, smallQueries[q])
	}
	return w
}

// --- routed-hot ---

// routedQueries adds a join with the unary relation S that routed-hot
// ingests into; R never changes, so read costs do not grow during a run.
var routedQueries = append(append([]string{}, smallQueries...), "ans(x) :- R(x,y), S(y)")

// routedHot: provrouter in front of two tiered provmind nodes whose
// resident budget holds about two thirds of the instances. Instances are
// chosen Zipf-skewed; 95% of ops read from a small pool over all read
// endpoints, so the router cache, generation revalidation and fault-in all
// work. Ingests add facts to S over a domain of 4000 values, of which only
// the 40 values of R join, so they bump generations (and invalidate router
// entries) without making the hot instances ever more expensive to read.
func routedHot(seed int64) *Workload {
	const (
		nInst  = 48
		domain = 40
	)
	w := &Workload{Name: "routed-hot", Rate: 180, Nodes: 2, Router: true, TierBudget: 480 << 10, Queries: routedQueries}
	tags := make([][]string, nInst)
	for i := 0; i < nInst; i++ {
		d := db.NewInstance()
		g := db.NewGenerator(seed*43 + int64(i))
		g.RandomRelation(d, "R", 2, 200, domain)
		g.RandomRelation(d, "S", 1, 10, domain)
		w.IDs = append(w.IDs, fmt.Sprintf("rh%d", i))
		w.Texts = append(w.Texts, db.FormatInstance(d))
		tags[i] = d.Tags()
	}
	st := newIngestState(w.Texts)
	stream := subRand(seed, 6)
	zipf := rand.NewZipf(stream, 1.2, 1, nInst-1)
	w.gen = func() Op {
		inst := int(zipf.Uint64())
		r := stream.Float64()
		op := Op{Inst: inst, Q: stream.Intn(len(routedQueries))}
		switch {
		case r < 0.05:
			return w.finish(Op{Kind: "ingest", Inst: inst, Facts: st.facts(stream, inst, 1+stream.Intn(4), "S", 1, 100*domain)}, "")
		case r < 0.35:
			op.Kind = "core"
		case r < 0.65:
			op.Kind = "query"
		case r < 0.77:
			op.Kind, op.Q = "prob", 2*stream.Intn(2)
			op.Tuple = []string{fmt.Sprintf("d%d", stream.Intn(8))}
		case r < 0.89:
			op.Kind, op.Q = "trust", 2*stream.Intn(2)
			op.Tuple = []string{fmt.Sprintf("d%d", stream.Intn(8))}
		default:
			op.Kind = "deletion"
			k := stream.Intn(4)
			op.Deleted = []string{tags[inst][k], tags[inst][k+4]}
		}
		return w.finish(op, routedQueries[op.Q])
	}
	return w
}
