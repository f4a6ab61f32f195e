package eval

import (
	"fmt"
	"runtime"
	"testing"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/workload"
)

// evalBoth evaluates u adjunct by adjunct with the hash join (sequential,
// without statistics, and forced parallel) and with the nested-loop
// enumerator on every adjunct size, and fails unless the rendered results
// are byte-identical. It returns the enumerator's rendering.
func evalBoth(t *testing.T, u *query.UCQ, d *db.Instance) string {
	t.Helper()
	nested, err := evalEach(u, func(res *Result, q *query.CQ) error { return enumEval(res, q, d) })
	if err != nil {
		t.Fatalf("nested-loop eval of %s: %v", u, err)
	}
	want := nested.String()
	for _, m := range []struct {
		name string
		opts Options
	}{
		{"hash-join", Options{Parallelism: 1}},
		{"hash-join/stats=off", Options{Parallelism: 1, NoStats: true}},
		{"hash-join/parallel", Options{Parallelism: 4, ParallelThreshold: 1}},
	} {
		hash, err := evalEach(u, func(res *Result, q *query.CQ) error { return hashJoinEval(res, q, d, m.opts) })
		if err != nil {
			t.Fatalf("%s eval of %s: %v", m.name, u, err)
		}
		if got := hash.String(); got != want {
			t.Errorf("%s diverges from nested loop on %s:\n%s\nvs nested loop\n%s", m.name, u, got, want)
		}
	}
	return want
}

func TestHashJoinMatchesNestedLoopFixed(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "a")
	d.MustAdd("R", "r2", "a", "b")
	d.MustAdd("R", "r3", "b", "a")
	d.MustAdd("R", "r4", "b", "c")
	d.MustAdd("S", "s1", "a")
	d.MustAdd("S", "s2", "c")
	d.MustAdd("T", "t1", "x", "y", "z")

	cases := []string{
		"ans(x) :- R(x,y), R(y,x)",                       // paper query, self join
		"ans(x) :- R(x,x)",                               // repeated variable in one atom
		"ans(x,y) :- R(x,z), R(z,y)",                     // chain
		"ans(x) :- R(x,y), S(y)",                         // cross relation join
		"ans(x) :- R(x,'a')",                             // constant argument
		"ans(x) :- R('a',x), R(x,'a')",                   // constants both ends
		"ans(x,y) :- R(x,y), x != y",                     // disequality
		"ans(x,y) :- R(x,y), x != 'a'",                   // var-const disequality
		"ans(x,u) :- R(x,y), S(u)",                       // cross product (disconnected)
		"ans() :- R(x,y), R(y,z), R(z,x)",                // boolean cycle
		"ans(x) :- R(x,y), R(y,z), R(z,w), w != x",       // long chain + diseq
		"ans(x) :- R(x,y); ans(x) :- R(y,x)",             // union
		"ans(x) :- R(x,y), S(y); ans(x) :- R(x,x)",       // mixed union
		"ans(x) :- Missing(x)",                           // unknown relation: empty
		"ans(x) :- R(x,y), Missing(y)",                   // join with unknown relation
		"ans(x,y,z) :- T(x,y,z)",                         // ternary scan
		"ans('k') :- R(x,x)",                             // constant head
		"ans(x) :- R(x,y), R(x,z), y != z",               // branching + diseq
		"ans(x) :- R(x,y), R(y,z), R(x,z)",               // triangle
		"ans(x,y) :- R(x,y), R(y,y)",                     // join into self-loop
		"ans(x) :- R(x,y), S(x), S(y)",                   // multiple unary filters
		"ans(x) :- S(x), R(x,y), R(y,w), R(w,'a')",       // selective constant late
		"ans(x,y) :- R(x,y), x != y, y != 'c', x != 'b'", // several diseqs
	}
	for _, qt := range cases {
		u, err := query.ParseUnion(qt)
		if err != nil {
			t.Fatalf("%s: %v", qt, err)
		}
		evalBoth(t, u, d)
	}
}

// TestHashJoinMatchesNestedLoopRandom sweeps random unions over random
// instances, self-joins and disequalities included. The instances are
// larger than the reference sweep's, which the brute-force oracle could
// not afford.
func TestHashJoinMatchesNestedLoopRandom(t *testing.T) {
	params := workload.DefaultParams()
	params.NumAtoms = 4
	params.NumVars = 5
	params.NumRels = 3
	for seed := int64(0); seed < 40; seed++ {
		d := db.NewInstance()
		g := db.NewGenerator(seed)
		g.RandomRelation(d, "R1", 2, 20, 6)
		g.RandomRelation(d, "R2", 2, 15, 6)
		g.RandomRelation(d, "R3", 2, 10, 6)
		u := workload.RandomUCQ(seed, int(seed%3)+1, params)
		evalBoth(t, u, d)
	}
}

func TestHashJoinStaticDiseqs(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "b")
	// 'a' != 'a' is statically unsatisfiable; 'a' != 'b' always holds.
	sat := query.NewCQ(
		query.NewAtom("ans", query.V("x")),
		[]query.Atom{query.NewAtom("R", query.V("x"), query.V("y"))},
		[]query.Diseq{query.NewDiseq(query.C("a"), query.C("b"))},
	)
	unsat := query.NewCQ(
		query.NewAtom("ans", query.V("x")),
		[]query.Atom{query.NewAtom("R", query.V("x"), query.V("y"))},
		[]query.Diseq{query.NewDiseq(query.C("a"), query.C("a"))},
	)
	if got := checkReference(t, query.Single(sat), d); got == "" {
		t.Errorf("satisfied constant disequality emptied the result")
	}
	if got := checkReference(t, query.Single(unsat), d); got != "" {
		t.Errorf("unsatisfiable constant disequality produced tuples:\n%s", got)
	}
}

// TestHashJoinSeparatorInjection: values are arbitrary strings, so a
// separator byte inside a value must not make two distinct bindings join.
// Under naive 0x1f framing of string keys, ("a\x1f","b") and ("a","\x1fb")
// would collide on a two-variable join and produce a match the reference
// (correctly) rejects.
func TestHashJoinSeparatorInjection(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("A", "a1", "a", "\x1fb")
	d.MustAdd("B", "b1", "a\x1f", "b")
	q := query.NewCQ(
		query.NewAtom("ans", query.V("x"), query.V("y")),
		[]query.Atom{
			query.NewAtom("A", query.V("x"), query.V("y")),
			query.NewAtom("B", query.V("x"), query.V("y")),
		},
		nil,
	)
	if got := checkReference(t, query.Single(q), d); got != "" {
		t.Errorf("distinct bindings joined via separator collision:\n%s", got)
	}
}

// TestHashJoinErrors: the hash join rejects malformed queries itself, not
// only behind the dispatch in evalCQInto.
func TestHashJoinErrors(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "b")
	arity := query.MustParse("ans(x) :- R(x,y,z)")
	if err := hashJoinEval(newResult(), arity, d, Options{}); err == nil {
		t.Error("hash join accepted an arity-mismatched atom")
	}
	unsafe := query.NewCQ(
		query.NewAtom("ans", query.V("q")), // head var not in body
		[]query.Atom{query.NewAtom("R", query.V("x"), query.V("y"))},
		nil,
	)
	if err := hashJoinEval(newResult(), unsafe, d, Options{}); err == nil {
		t.Error("hash join accepted an unsafe head variable")
	}
}

// TestParallelJoinStress drives the parallel probe and emit hard enough to
// matter under -race: large probe sets, many workers, tiny threshold, and
// every result compared byte-for-byte against the sequential evaluator.
// CI runs this in a dedicated -race step, next to the reference-oracle
// tests, which race a forced-parallel join on every case they check.
func TestParallelJoinStress(t *testing.T) {
	queries := []string{
		"ans(x,y,z) :- R(x,y), R(y,z), R(z,x)",
		"ans(x,w) :- R(x,y), R(y,z), R(z,w)",
		"ans(x,y) :- R(x,y), R(y,z), x != z",
	}
	for seed := int64(0); seed < 4; seed++ {
		d := db.NewInstance()
		db.NewGenerator(seed).RandomGraph(d, "R", 40, 400)
		for _, qt := range queries {
			u := query.MustParseUnion(qt)
			seq, err := EvalUCQOpts(u, d, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 8} {
				got, err := EvalUCQOpts(u, d, Options{Parallelism: par, ParallelThreshold: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != seq.String() {
					t.Fatalf("seed %d par %d: parallel join diverges on %s", seed, par, qt)
				}
			}
		}
	}
}

// TestPlanOrderCostUsesDistincts: two join candidates of identical size —
// indistinguishable to the size-based planner — are ranked by their join
// column's distinct count. Joining Seed through Keyed (distinct keys,
// ~1 match per binding) before Skewed (5 distinct values, ~20 matches)
// keeps the intermediate result small.
func TestPlanOrderCostUsesDistincts(t *testing.T) {
	d := db.NewInstance()
	for i := 0; i < 10; i++ {
		d.MustAdd("Seed", fmt.Sprintf("s%d", i), fmt.Sprintf("k%d", i))
	}
	for i := 0; i < 100; i++ {
		d.MustAdd("Skewed", fmt.Sprintf("f%d", i), fmt.Sprintf("k%d", i%5), fmt.Sprintf("p%d", i))
		d.MustAdd("Keyed", fmt.Sprintf("g%d", i), fmt.Sprintf("k%d", i), fmt.Sprintf("q%d", i))
	}
	// Body order puts Skewed before Keyed, so a size-based tie keeps it
	// there; only the distinct-count division can flip the order.
	q := query.MustParse("ans(x,z,w) :- Seed(x), Skewed(x,z), Keyed(x,w)")
	order := planOrderCost(q, d)
	if order[0] != 0 || order[1] != 2 {
		t.Errorf("cost order %v: want Seed then the key-joined atom [0 2 1]", order)
	}
	if szOrder := planOrder(q, d); szOrder[1] != 1 {
		t.Errorf("size order %v: expected the size tie to keep body order — if the "+
			"size planner distinguishes these atoms the cost test above is vacuous", szOrder)
	}

}

// TestPlanOrderSelectivity: the planner starts from the most selective
// atom and only leaves the connected prefix when it must.
func TestPlanOrderSelectivity(t *testing.T) {
	d := db.NewInstance()
	for i := 0; i < 50; i++ {
		d.MustAdd("Big", fmt.Sprintf("b%d", i), fmt.Sprintf("v%d", i), "a")
	}
	d.MustAdd("Small", "s1", "v1")
	q := query.MustParse("ans(x) :- Big(x,y), Small(x)")
	order := planOrder(q, d)
	if order[0] != 1 {
		t.Errorf("plan order %v: want the 1-row Small atom first", order)
	}
	// A constant narrows Big below Small via the column index.
	d2 := db.NewInstance()
	for i := 0; i < 50; i++ {
		d2.MustAdd("Big", fmt.Sprintf("b%d", i), fmt.Sprintf("v%d", i), "a")
	}
	for i := 0; i < 10; i++ {
		d2.MustAdd("Small", fmt.Sprintf("s%d", i), fmt.Sprintf("v%d", i))
	}
	q2 := query.MustParse("ans(x) :- Big(x,y), Small(x), Big('v7',x)")
	order2 := planOrder(q2, d2)
	if order2[0] != 2 {
		t.Errorf("plan order %v: want the constant-narrowed atom first", order2)
	}
}

// BenchmarkJoinMultiConjunct measures multi-conjunct queries whose cost is
// in the join search: a 4-atom chain over a sparse graph and a triangle
// with two join variables on its closing atom.
func BenchmarkJoinMultiConjunct(b *testing.B) {
	chain := db.NewInstance()
	db.NewGenerator(3).RandomGraph(chain, "R", 300, 600)
	triangle := db.NewInstance()
	db.NewGenerator(5).RandomGraph(triangle, "R", 60, 360)
	workloads := []struct {
		name string
		u    *query.UCQ
		d    *db.Instance
	}{
		{"chain4", query.Single(workload.ChainCQ(4)), chain},
		{"triangle", query.MustParseUnion("ans(x,y,z) :- R(x,y), R(y,z), R(z,x)"), triangle},
	}
	for _, w := range workloads {
		b.Run(w.name+"/hash", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := EvalUCQ(w.u, w.d); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestHashJoinAllocationTracksWork bounds the bytes one evaluation of a
// three-adjunct UCQ allocates on a four-fact instance. Every join step
// here emits a handful of partial assignments, so the probe arenas must
// stay proportional to that: a fixed 512-node block per probe chunk (24 KB
// per join step, nine steps: ≈250 KB in all) is far over the bound, which
// sits at about twice the ≈15 KB that work-sized arenas measure.
func TestHashJoinAllocationTracksWork(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "a")
	d.MustAdd("R", "r2", "a", "b")
	d.MustAdd("R", "r3", "b", "a")
	d.MustAdd("R", "r4", "b", "c")
	u := query.MustParseUnion("ans(x) :- R(x,y), R(y,z), R(z,x)\n" +
		"ans(x) :- R(x,y), R(y,x), R(x,x)\n" +
		"ans(x) :- R(x,y), R(y,z), R(x,z)")
	const runs = 50
	if _, err := EvalUCQ(u, d); err != nil {
		t.Fatal(err) // build the lazy id indexes outside the measurement
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := EvalUCQ(u, d); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perEval := (after.TotalAlloc - before.TotalAlloc) / runs
	const bound = 32 << 10
	if perEval > bound {
		t.Errorf("one evaluation allocates %d B; want at most %d B", perEval, bound)
	}
}
