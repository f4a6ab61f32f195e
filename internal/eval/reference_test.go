package eval

import (
	"fmt"
	"testing"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/semiring"
	"provmin/internal/workload"
)

// referenceEval is the oracle every evaluation path is pinned to: a
// literal reading of Def. 2.6 and Def. 2.12. For each adjunct it walks the
// full cross product of rows, one row per body atom, keeps a combination
// when the atoms' constants, repeated variables and the disequalities all
// hold, and adds the product of the rows' tags onto the head tuple. No
// index, no join order, no symbol ids: it is slow on purpose, so keep the
// instances it sees small.
func referenceEval(t *testing.T, u *query.UCQ, d *db.Instance) *Result {
	t.Helper()
	res := NewResult()
	for _, q := range u.Adjuncts {
		rows := make([][]db.Row, len(q.Atoms))
		for i, at := range q.Atoms {
			if rel := d.Lookup(at.Rel); rel != nil {
				if rel.Arity != len(at.Args) {
					t.Fatalf("reference: atom %s against arity %d", at, rel.Arity)
				}
				rows[i] = rel.Rows()
			}
		}
		picked := make([]db.Row, len(q.Atoms))
		var walk func(i int)
		walk = func(i int) {
			if i < len(q.Atoms) {
				for _, row := range rows[i] {
					picked[i] = row
					walk(i + 1)
				}
				return
			}
			binding, ok := referenceBinding(q, picked)
			if !ok {
				return
			}
			head := make(db.Tuple, len(q.Head.Args))
			for j, a := range q.Head.Args {
				head[j] = referenceValue(a, binding)
			}
			tags := make([]string, len(picked))
			for j, row := range picked {
				tags[j] = row.Tag
			}
			res.Add(head, semiring.FromMonomial(semiring.NewMonomial(tags...), 1))
		}
		walk(0)
	}
	res.Finish()
	return res
}

// referenceBinding checks one row combination against q: every constant
// argument equals its column, every variable takes one value across all
// its occurrences, and every disequality holds. It returns the variable
// binding the combination induces.
func referenceBinding(q *query.CQ, picked []db.Row) (map[string]string, bool) {
	binding := map[string]string{}
	for i, at := range q.Atoms {
		for j, a := range at.Args {
			v := picked[i].Tuple[j]
			if a.Const {
				if v != a.Name {
					return nil, false
				}
				continue
			}
			if prev, seen := binding[a.Name]; seen && prev != v {
				return nil, false
			}
			binding[a.Name] = v
		}
	}
	for _, dq := range q.Diseqs {
		if referenceValue(dq.Left, binding) == referenceValue(dq.Right, binding) {
			return nil, false
		}
	}
	return binding, true
}

func referenceValue(a query.Arg, binding map[string]string) string {
	if a.Const {
		return a.Name
	}
	return binding[a.Name]
}

// evalEach evaluates u adjunct by adjunct through one evaluation path.
func evalEach(u *query.UCQ, each func(res *Result, q *query.CQ) error) (*Result, error) {
	res := newResult()
	for _, q := range u.Adjuncts {
		if err := each(res, q); err != nil {
			return nil, err
		}
	}
	res.finish()
	return res, nil
}

// evalViaDelta evaluates u the way the result cache maintains it: on a
// copy of d holding the first half of every relation's rows, then adding
// the delta of inserting the second half.
func evalViaDelta(u *query.UCQ, d *db.Instance) (*Result, error) {
	inc := db.NewInstance()
	oldLen := map[string]int{}
	for _, r := range d.Relations() {
		nr := inc.MustRelation(r.Name, r.Arity)
		oldLen[r.Name] = r.Len() / 2
		for _, row := range r.Rows()[:oldLen[r.Name]] {
			nr.MustAdd(row.Tag, row.Tuple...)
		}
	}
	old, err := EvalUCQ(u, inc)
	if err != nil {
		return nil, err
	}
	for _, r := range d.Relations() {
		nr := inc.Lookup(r.Name)
		for _, row := range r.Rows()[oldLen[r.Name]:] {
			nr.MustAdd(row.Tag, row.Tuple...)
		}
	}
	delta, err := EvalUCQDelta(u, inc, oldLen)
	if err != nil {
		return nil, err
	}
	return mergeResults(old, delta), nil
}

// checkReference fails unless every evaluation path renders u over d
// byte-identically to referenceEval: the hash join forced onto every
// adjunct size (sequential, without statistics, and forced parallel), the
// enumerator on every adjunct size, the default dispatch between the two,
// and the delta path (old + delta). It returns the reference rendering.
func checkReference(t *testing.T, u *query.UCQ, d *db.Instance) string {
	t.Helper()
	want := referenceEval(t, u, d).String()
	hash := func(opts Options) func() (*Result, error) {
		return func() (*Result, error) {
			return evalEach(u, func(res *Result, q *query.CQ) error {
				return hashJoinEval(res, q, d, opts)
			})
		}
	}
	paths := []struct {
		name string
		eval func() (*Result, error)
	}{
		{"hash-join", hash(Options{Parallelism: 1})},
		{"hash-join/stats=off", hash(Options{Parallelism: 1, NoStats: true})},
		{"hash-join/parallel", hash(Options{Parallelism: 4, ParallelThreshold: 1})},
		{"enumerator", func() (*Result, error) {
			return evalEach(u, func(res *Result, q *query.CQ) error { return enumEval(res, q, d) })
		}},
		{"EvalUCQ", func() (*Result, error) { return EvalUCQ(u, d) }},
		{"delta", func() (*Result, error) { return evalViaDelta(u, d) }},
	}
	for _, p := range paths {
		res, err := p.eval()
		if err != nil {
			t.Fatalf("%s eval of %s: %v", p.name, u, err)
		}
		if got := res.String(); got != want {
			t.Errorf("%s diverges from the reference on %s:\n%s\nvs reference\n%s", p.name, u, got, want)
		}
	}
	return want
}

// TestInternedMatchesStringFixed pins every interned evaluation path to the
// string-valued reference on hand-picked edge cases.
func TestInternedMatchesStringFixed(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "a")
	d.MustAdd("R", "r2", "a", "b")
	d.MustAdd("R", "r3", "b", "a")
	d.MustAdd("R", "r4", "b", "c")
	d.MustAdd("R", "r5", "", "a") // the empty string is a legal value
	d.MustAdd("S", "s1", "a")
	d.MustAdd("S", "s2", "c")
	d.MustAdd("S", "s3", "")
	d.MustAdd("T", "t1", "x", "y", "z")
	d.MustAdd("T", "t2", "x", "y", "a")

	cases := []string{
		"ans(x) :- R(x,y), R(y,x)", // paper query, self join
		"ans(x) :- R(x,x)",         // repeated variable in one atom
		"ans(x,y) :- R(x,z), R(z,y)",
		"ans(x) :- R(x,y), S(y)",
		"ans(x) :- R(x,'a')",
		"ans(x) :- R('a',x), R(x,'a')",
		"ans(x) :- R(x,'zzz')",            // constant the instance never stored
		"ans(x) :- R(x,y), x != 'zzz'",    // diseq against an unstored constant
		"ans(x) :- R(x,y), S(x), y != ''", // diseq against the empty string
		"ans(x) :- R('',x)",               // empty-string constant
		"ans(x,y) :- R(x,y), x != y",
		"ans(x,y) :- R(x,y), x != 'a'",
		"ans(x,u) :- R(x,y), S(u)",         // cross product
		"ans(x,u,w) :- R(x,y), S(u), S(w)", // cross product, three atoms
		"ans() :- R(x,y), R(y,z), R(z,x)",  // boolean cycle
		"ans(x) :- R(x,y), R(y,z), R(z,w), w != x",
		"ans(x) :- R(x,y); ans(x) :- R(y,x)",
		"ans(x) :- R(x,y), S(y); ans(x) :- R(x,x)",
		"ans(x) :- Missing(x)", // missing relation
		"ans(x) :- R(x,y), Missing(y)",
		"ans(x) :- R(x,y), R(y,z), Missing(z)",
		"ans(x,y,z) :- T(x,y,z)",
		"ans('k') :- R(x,x)", // constant head
		"ans(x) :- R(x,y), R(x,z), y != z",
		"ans(x) :- R(x,y), R(y,z), R(x,z)", // triangle
		"ans(x,y) :- R(x,y), R(y,y)",
		"ans(x) :- R(x,y), S(x), S(y)",
		"ans(x) :- S(x), R(x,y), R(y,w), R(w,'a')", // selective constant late
		"ans(x,y) :- R(x,y), x != y, y != 'c', x != 'b'",
		"ans(x,y,z,w) :- R(x,y), R(y,z), R(z,w)",
		"ans(x,y,z) :- T(x,y,z), T(x,y,z), S(z)", // 3 join columns: wide key path
	}
	for _, qt := range cases {
		u, err := query.ParseUnion(qt)
		if err != nil {
			t.Fatalf("%s: %v", qt, err)
		}
		checkReference(t, u, d)
	}

	// Constant-constant disequalities, equal and unequal, with and without
	// body atoms. With none the only assignment is the empty one.
	head := query.NewAtom("ans", query.C("k"))
	for _, tc := range []struct {
		atoms []query.Atom
		diseq query.Diseq
		empty bool
	}{
		{nil, query.NewDiseq(query.C("a"), query.C("b")), false},
		{nil, query.NewDiseq(query.C("a"), query.C("a")), true},
		{[]query.Atom{query.NewAtom("S", query.V("x"))}, query.NewDiseq(query.C("a"), query.C("b")), false},
		{[]query.Atom{query.NewAtom("S", query.V("x"))}, query.NewDiseq(query.C(""), query.C("")), true},
		{[]query.Atom{query.NewAtom("R", query.V("x"), query.V("y")), query.NewAtom("R", query.V("y"), query.V("z")),
			query.NewAtom("S", query.V("z"))}, query.NewDiseq(query.C("a"), query.C("a")), true},
	} {
		u := query.Single(query.NewCQ(head, tc.atoms, []query.Diseq{tc.diseq}))
		if got := checkReference(t, u, d); (got == "") != tc.empty {
			t.Errorf("%s: reference result %q, want empty=%v", u, got, tc.empty)
		}
	}
	// A zero-atom query without disequalities yields the unit 1.
	unit := query.Single(query.NewCQ(head, nil, nil))
	if got := checkReference(t, unit, d); got == "" {
		t.Errorf("%s: empty result, want the empty assignment", unit)
	}
}

// TestInternedMatchesStringRandom sweeps random unions with self-joins and
// disequalities over small random instances through every interned path
// and the string-valued reference.
func TestInternedMatchesStringRandom(t *testing.T) {
	params := workload.DefaultParams()
	params.NumAtoms = 4
	params.NumVars = 5
	params.NumRels = 3
	for seed := int64(0); seed < 40; seed++ {
		d := db.NewInstance()
		g := db.NewGenerator(seed)
		g.RandomRelation(d, "R1", 2, 10, 4)
		g.RandomRelation(d, "R2", 2, 8, 4)
		g.RandomRelation(d, "R3", 2, 6, 4)
		u := workload.RandomUCQ(seed, int(seed%3)+1, params)
		checkReference(t, u, d)
	}
}

// TestDeltaMatchesReference: after an insert batch that brings new values,
// old + delta must render exactly as the reference does on the
// post-insert instance, or promoted cache entries drift.
func TestDeltaMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		d := db.NewInstance()
		g := db.NewGenerator(seed)
		g.RandomGraph(d, "R", 10, 25)
		g.RandomRelation(d, "S", 1, 8, 10)
		u := query.MustParseUnion(
			"ans(x,z) :- R(x,y), R(y,z), S(x); ans(x,x) :- R(x,x)")
		old, err := EvalUCQ(u, d)
		if err != nil {
			t.Fatal(err)
		}
		oldLen := map[string]int{"R": d.Lookup("R").Len(), "S": d.Lookup("S").Len()}
		// Append rows that cannot already exist (values nK are outside the
		// generator's domain): the delta contract covers insertions only, a
		// tag overwrite would make the batch a mutation.
		for i := 0; i < 4; i++ {
			d.MustAdd("R", fmt.Sprintf("nr%d", i), fmt.Sprintf("d%d", i), fmt.Sprintf("n%d", i))
			d.MustAdd("R", fmt.Sprintf("nb%d", i), fmt.Sprintf("n%d", i), fmt.Sprintf("d%d", i+2))
		}
		d.MustAdd("R", "nloop", "n1", "n1")
		d.MustAdd("S", "sx", "n1")

		delta, err := EvalUCQDelta(u, d, oldLen)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mergeResults(old, delta).String(), referenceEval(t, u, d).String(); got != want {
			t.Fatalf("seed %d: old + delta diverges from the reference:\n%s\nvs reference\n%s", seed, got, want)
		}
	}
}
