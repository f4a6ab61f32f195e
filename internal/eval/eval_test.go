package eval

import (
	"slices"
	"strings"
	"testing"

	"provmin/internal/db"
	"provmin/internal/query"
	"provmin/internal/semiring"
)

// table2 builds relation R of Table 2 with its provenance column.
func table2() *db.Instance {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "a")
	d.MustAdd("R", "s2", "a", "b")
	d.MustAdd("R", "s3", "b", "a")
	d.MustAdd("R", "s4", "b", "b")
	return d
}

// table4 builds database D of the Lemma 3.6 proof (Table 4 + S = {(a):s0}).
func table4() *db.Instance {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "b")
	d.MustAdd("R", "s2", "b", "a")
	d.MustAdd("R", "s3", "a", "a")
	d.MustAdd("S", "s0", "a")
	return d
}

// table5 builds database D' of the Lemma 3.6 proof (Table 5 + S = {(a):s0}).
func table5() *db.Instance {
	d := db.NewInstance()
	d.MustAdd("R", "t1", "a", "b")
	d.MustAdd("R", "t2", "b", "c")
	d.MustAdd("R", "t3", "c", "a")
	d.MustAdd("R", "t4", "a", "a")
	d.MustAdd("S", "s0", "a")
	return d
}

const (
	qUnionText = "ans(x) :- R(x,y), R(y,x), x != y\nans(x) :- R(x,x)"
	qConjText  = "ans(x) :- R(x,y), R(y,x)"
	qNoPminTxt = "ans() :- R(x1,x2), R(x2,x3), R(x3,x4), R(x4,x5), R(x5,x1), S(x1), x1 != x2"
	qAltText   = "ans() :- R(x1,x2), R(x2,x3), R(x3,x4), R(x4,x5), R(x5,x1), S(x1), x1 != x3"
)

func mustProv(t *testing.T, res *Result, tuple db.Tuple) semiring.Polynomial {
	t.Helper()
	p, ok := res.Lookup(tuple)
	if !ok {
		t.Fatalf("tuple %v not in result:\n%s", tuple, res)
	}
	return p
}

func TestExample213QunionReproducesTable3(t *testing.T) {
	u := query.MustParseUnion(qUnionText)
	res, err := EvalUCQ(u, table2())
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("result:\n%s", res)
	}
	// Table 3: (a) -> s2*s3 + s1, (b) -> s3*s2 + s4.
	if got, want := mustProv(t, res, db.Tuple{"a"}), semiring.MustParsePolynomial("s2*s3 + s1"); !got.Equal(want) {
		t.Errorf("prov(a) = %v, want %v", got, want)
	}
	if got, want := mustProv(t, res, db.Tuple{"b"}), semiring.MustParsePolynomial("s2*s3 + s4"); !got.Equal(want) {
		t.Errorf("prov(b) = %v, want %v", got, want)
	}
}

func TestExample214QconjProvenance(t *testing.T) {
	q := query.MustParse(qConjText)
	res, err := EvalCQ(q, table2())
	if err != nil {
		t.Fatal(err)
	}
	// Example 2.14: (a) -> s2*s3 + s1*s1, (b) -> s3*s2 + s4*s4.
	if got, want := mustProv(t, res, db.Tuple{"a"}), semiring.MustParsePolynomial("s2*s3 + s1^2"); !got.Equal(want) {
		t.Errorf("prov(a) = %v, want %v", got, want)
	}
	if got, want := mustProv(t, res, db.Tuple{"b"}), semiring.MustParsePolynomial("s2*s3 + s4^2"); !got.Equal(want) {
		t.Errorf("prov(b) = %v, want %v", got, want)
	}
}

func TestExample34BooleanQueries(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s", "a")
	q := query.MustParse("ans() :- R(x), R(y)")
	qp := query.MustParse("ans() :- R(x)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustProv(t, res, db.Tuple{}), semiring.MustParsePolynomial("s^2"); !got.Equal(want) {
		t.Errorf("prov(Q) = %v, want s^2", got)
	}
	resP, err := EvalCQ(qp, d)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustProv(t, resP, db.Tuple{}), semiring.MustParsePolynomial("s"); !got.Equal(want) {
		t.Errorf("prov(Q') = %v, want s", got)
	}
}

func TestLemma36ProvenanceOnD(t *testing.T) {
	d := table4()
	resNoPmin, err := EvalCQ(query.MustParse(qNoPminTxt), d)
	if err != nil {
		t.Fatal(err)
	}
	// 2*(s1)^2*(s2)^2*s3*s0 + s1*s2*(s3)^3*s0
	want := semiring.MustParsePolynomial("2*s0*s1^2*s2^2*s3 + s0*s1*s2*s3^3")
	if got := mustProv(t, resNoPmin, db.Tuple{}); !got.Equal(want) {
		t.Errorf("P(QnoPmin, D) = %v, want %v", got, want)
	}
	resAlt, err := EvalCQ(query.MustParse(qAltText), d)
	if err != nil {
		t.Fatal(err)
	}
	// (s1)^2*(s2)^2*s3*s0 + s1*s2*(s3)^3*s0 — strictly smaller.
	wantAlt := semiring.MustParsePolynomial("s0*s1^2*s2^2*s3 + s0*s1*s2*s3^3")
	if got := mustProv(t, resAlt, db.Tuple{}); !got.Equal(wantAlt) {
		t.Errorf("P(Qalt, D) = %v, want %v", got, wantAlt)
	}
}

func TestLemma36ProvenanceOnDPrime(t *testing.T) {
	d := table5()
	resNoPmin, err := EvalCQ(query.MustParse(qNoPminTxt), d)
	if err != nil {
		t.Fatal(err)
	}
	want := semiring.MustParsePolynomial("s0*t1*t2*t3*t4^2")
	if got := mustProv(t, resNoPmin, db.Tuple{}); !got.Equal(want) {
		t.Errorf("P(QnoPmin, D') = %v, want %v", got, want)
	}
	resAlt, err := EvalCQ(query.MustParse(qAltText), d)
	if err != nil {
		t.Fatal(err)
	}
	// Two equal monomials: strictly greater than QnoPmin's provenance.
	wantAlt := semiring.MustParsePolynomial("2*s0*t1*t2*t3*t4^2")
	if got := mustProv(t, resAlt, db.Tuple{}); !got.Equal(wantAlt) {
		t.Errorf("P(Qalt, D') = %v, want %v", got, wantAlt)
	}
}

func TestExample52TriangleQuery(t *testing.T) {
	// Q̂ over D̂ (Table 6): s1^3 + 3*s1*s2*s3 + 3*s2*s4*s5.
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "a")
	d.MustAdd("R", "s2", "a", "b")
	d.MustAdd("R", "s3", "b", "a")
	d.MustAdd("R", "s4", "b", "c")
	d.MustAdd("R", "s5", "c", "a")
	q := query.MustParse("ans() :- R(x,y), R(y,z), R(z,x)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	want := semiring.MustParsePolynomial("s1^3 + 3*s1*s2*s3 + 3*s2*s4*s5")
	if got := mustProv(t, res, db.Tuple{}); !got.Equal(want) {
		t.Errorf("P(Q̂, D̂) = %v, want %v", got, want)
	}
}

func TestEvalWithConstants(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "b")
	d.MustAdd("R", "s2", "b", "b")
	q := query.MustParse("ans(x) :- R(x,'b'), x != 'b'")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains(db.Tuple{"a"}) {
		t.Fatalf("result:\n%s", res)
	}
}

func TestEvalHeadConstant(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "b", "a")
	q := query.MustParse("ans('b','a') :- R('b','a')")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Contains(db.Tuple{"b", "a"}) {
		t.Fatalf("result:\n%s", res)
	}
}

func TestEvalDiseqVarConst(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a")
	d.MustAdd("R", "s2", "b")
	q := query.MustParse("ans(x) :- R(x), x != 'a'")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || !res.Contains(db.Tuple{"b"}) {
		t.Fatalf("result:\n%s", res)
	}
}

func TestEvalMissingRelationIsEmpty(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a")
	q := query.MustParse("ans(x) :- R(x), Nope(x)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Errorf("result should be empty:\n%s", res)
	}
}

func TestEvalArityMismatchFails(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "b")
	q := query.MustParse("ans(x) :- R(x)")
	if _, err := EvalCQ(q, d); err == nil {
		t.Error("arity mismatch must fail")
	}
}

// TestArityErrorEveryEntryPoint: an atom that disagrees with its
// relation's arity is rejected with one message through every public
// entry point, whichever evaluation path serves it — the server maps the
// word "arity" in it to 400.
func TestArityErrorEveryEntryPoint(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a", "b")
	d.MustAdd("S", "s1", "a")
	small := query.MustParse("ans(x) :- R(x,y,z)")                   // enumerator
	large := query.MustParse("ans(x) :- R(x,y,z), S(x), S(y), S(z)") // hash join
	entries := []struct {
		name string
		run  func() error
	}{
		{"EvalUCQ/1-atom", func() error { _, err := EvalUCQ(query.Single(small), d); return err }},
		{"EvalUCQ/4-atom", func() error { _, err := EvalUCQ(query.Single(large), d); return err }},
		{"EvalUCQDelta", func() error {
			_, err := EvalUCQDelta(query.Single(large), d, map[string]int{"R": 0})
			return err
		}},
		{"ForEachAssignment", func() error {
			return ForEachAssignment(small, d, func(Assignment) error { return nil })
		}},
		{"EvalDirect", func() error {
			_, _, err := EvalDirect[int](query.Single(large), d, semiring.Counting{}, func(string) int { return 1 })
			return err
		}},
		{"Derivations", func() error { _, err := Derivations(query.Single(small), d, db.Tuple{"a"}); return err }},
	}
	var want string
	for _, e := range entries {
		err := e.run()
		if err == nil {
			t.Fatalf("%s accepted an arity-mismatched atom", e.name)
		}
		if want == "" {
			want = err.Error()
			if !strings.Contains(want, "arity") {
				t.Fatalf("%s: message %q does not name the arity", e.name, want)
			}
		}
		if err.Error() != want {
			t.Errorf("%s: message %q, want %q", e.name, err, want)
		}
	}
}

// TestEvalOrderInvariance: the provenance result must not depend on the
// order in which atoms are matched. Every permutation of the body, through
// the enumerator and the hash join alike — cross-product steps included,
// which the planner never picks here — must render exactly as the
// reference does.
func TestEvalOrderInvariance(t *testing.T) {
	d := table4()
	for _, qt := range []string{qNoPminTxt, "ans(x) :- R(x,y), S(x), R(y,z), R(z,'a'), z != x"} {
		q := query.MustParse(qt)
		want := referenceEval(t, query.Single(q), d).String()
		c, err := compileCQ(q, d)
		if err != nil {
			t.Fatal(err)
		}
		perm := make([]int, len(q.Atoms))
		for i := range perm {
			perm[i] = i
		}
		n := 0
		for {
			enum := newResult()
			if err := c.accumulate(enum, perm, nil); err != nil {
				t.Fatal(err)
			}
			enum.finish()
			hash := newResult()
			e := &hashJoin{c: c, order: perm, varAt: make([]varRef, c.nvars), bound: make([]bool, c.nvars)}
			if err := e.run(hash); err != nil {
				t.Fatal(err)
			}
			hash.finish()
			if got := enum.String(); got != want {
				t.Fatalf("%s: enumerator in order %v diverges from the reference:\n%s\nvs\n%s", qt, perm, got, want)
			}
			if got := hash.String(); got != want {
				t.Fatalf("%s: hash join in order %v diverges from the reference:\n%s\nvs\n%s", qt, perm, got, want)
			}
			n++
			if !nextPermutation(perm) {
				break
			}
		}
		if n < 24 {
			t.Fatalf("%s: only %d orders checked", qt, n)
		}
	}
}

// nextPermutation advances p to its lexicographic successor, reporting
// false once p was the last permutation.
func nextPermutation(p []int) bool {
	i := len(p) - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(p) - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	slices.Reverse(p[i+1:])
	return true
}

func TestForEachAssignmentCount(t *testing.T) {
	// Example 2.7: Qunion has two assignments per adjunct over Table 2.
	u := query.MustParseUnion(qUnionText)
	counts := make([]int, len(u.Adjuncts))
	for i, q := range u.Adjuncts {
		n := 0
		if err := ForEachAssignment(q, table2(), func(Assignment) error {
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		counts[i] = n
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("assignment counts = %v, want [2 2]", counts)
	}
}

func TestProvenanceHelper(t *testing.T) {
	u := query.MustParseUnion(qUnionText)
	p, err := Provenance(u, table2(), db.Tuple{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Equal(semiring.MustParsePolynomial("s1 + s2*s3")) {
		t.Errorf("Provenance = %v", p)
	}
	zero, err := Provenance(u, table2(), db.Tuple{"zzz"})
	if err != nil {
		t.Fatal(err)
	}
	if !zero.IsZero() {
		t.Errorf("Provenance of absent tuple = %v", zero)
	}
}

func TestEvalInSemiringCounting(t *testing.T) {
	u := query.MustParseUnion(qConjText)
	vals, tuples, err := EvalInSemiring[int](u, table2(), semiring.Counting{}, func(string) int { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Fatalf("tuples = %v", tuples)
	}
	// Each tuple of Qconj has exactly two derivations over Table 2.
	for k, v := range vals {
		if v != 2 {
			t.Errorf("derivations[%q] = %d, want 2", k, v)
		}
	}
}

func TestSelfJoinSameAtomTwice(t *testing.T) {
	// Both atoms map to the same tuple: annotation must be squared.
	d := db.NewInstance()
	d.MustAdd("R", "s1", "a", "a")
	q := query.MustParse("ans() :- R(x,y), R(y,x)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustProv(t, res, db.Tuple{}); !got.Equal(semiring.MustParsePolynomial("s1^2")) {
		t.Errorf("prov = %v, want s1^2", got)
	}
}

func TestCrossProductNoSharedVars(t *testing.T) {
	d := db.NewInstance()
	d.MustAdd("R", "r1", "a")
	d.MustAdd("R", "r2", "b")
	d.MustAdd("S", "t1", "x")
	q := query.MustParse("ans() :- R(u), S(v)")
	res, err := EvalCQ(q, d)
	if err != nil {
		t.Fatal(err)
	}
	want := semiring.MustParsePolynomial("r1*t1 + r2*t1")
	if got := mustProv(t, res, db.Tuple{}); !got.Equal(want) {
		t.Errorf("prov = %v, want %v", got, want)
	}
}
