package minimize

import (
	"testing"

	"provmin/internal/hom"
	"provmin/internal/query"
)

func TestStandardMinimizeCQRemovesRedundantAtoms(t *testing.T) {
	q := query.MustParse("ans(x) :- R(x,y), R(x,z)")
	m, err := StandardMinimizeCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 1 {
		t.Errorf("minimized = %v, want one atom", m)
	}
	eq, err := hom.EquivalentCQ(q, m)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("minimization must preserve equivalence")
	}
}

func TestStandardMinimizeCQKeepsCore(t *testing.T) {
	// Qconj is already minimal: no surjective self-embedding into a proper
	// sub-query exists (Theorem 3.11's first claim).
	q := query.MustParse("ans(x) :- R(x,y), R(y,x)")
	m, err := StandardMinimizeCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 2 {
		t.Errorf("Qconj should be minimal, got %v", m)
	}
	min, err := IsStandardMinimalCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if !min {
		t.Error("IsStandardMinimalCQ(Qconj) = false")
	}
}

func TestStandardMinimizeCQChain(t *testing.T) {
	// Boolean chain with a redundant longer path folds to one atom.
	q := query.MustParse("ans() :- R(x,y), R(u,v), R(v,w)")
	m, err := StandardMinimizeCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 2 {
		// R(u,v),R(v,w) requires a 2-path; R(x,y) maps into it.
		t.Errorf("minimized = %v, want the 2-path", m)
	}
}

func TestStandardMinimizeCQRejectsDiseqs(t *testing.T) {
	q := query.MustParse("ans() :- R(x,y), x != y")
	if _, err := StandardMinimizeCQ(q); err == nil {
		t.Error("StandardMinimizeCQ must reject CQ≠ queries")
	}
}

func TestMinimizeCCQ(t *testing.T) {
	q := query.MustParse("ans() :- R(v1,v1), R(v1,v1), R(v1,v1)")
	m, err := MinimizeCCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 1 {
		t.Errorf("MinimizeCCQ = %v", m)
	}
	incomplete := query.MustParse("ans() :- R(x,y), R(y,z), x != z")
	if _, err := MinimizeCCQ(incomplete); err == nil {
		t.Error("MinimizeCCQ must reject incomplete queries")
	}
}

func TestLemma313DedupCharacterizesMinimality(t *testing.T) {
	// A complete query is minimal iff it has no duplicated atoms: check the
	// "only if" side by verifying the deduped query is equivalent.
	q := query.MustParse("ans(x) :- R(x,y), R(x,y), x != y")
	m, err := MinimizeCCQ(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Atoms) != 1 {
		t.Fatalf("MinimizeCCQ = %v", m)
	}
	if !EquivalentCQ(q, m) {
		t.Error("deduped complete query must be equivalent")
	}
}

func TestStandardMinimizeCQNeq(t *testing.T) {
	// Duplicate atom with a disequality present.
	q := query.MustParse("ans(x) :- R(x,y), R(x,y), x != y")
	m := StandardMinimizeCQNeq(q)
	if len(m.Atoms) != 1 {
		t.Errorf("minimized = %v", m)
	}
	if !EquivalentCQ(q, m) {
		t.Error("equivalence lost")
	}
	// Example 3.2's Q: both atoms are needed (removal changes semantics).
	q2 := query.MustParse("ans() :- R(x,y), R(y,z), x != z")
	m2 := StandardMinimizeCQNeq(q2)
	if len(m2.Atoms) != 2 {
		t.Errorf("Q from Example 3.2 is minimal, got %v", m2)
	}
}

func TestStandardMinimizeUCQ(t *testing.T) {
	// Q2 ⊆ Qconj: the union collapses to Qconj alone.
	u := query.MustParseUnion("ans(x) :- R(x,y), R(y,x)\nans(x) :- R(x,x)")
	m := StandardMinimizeUCQ(u)
	if len(m.Adjuncts) != 1 {
		t.Fatalf("minimized union = %v", m)
	}
	if !hom.Isomorphic(m.Adjuncts[0], query.MustParse("ans(x) :- R(x,y), R(y,x)")) {
		t.Errorf("kept adjunct = %v, want Qconj", m.Adjuncts[0])
	}
	if !Equivalent(m, u) {
		t.Error("union minimization must preserve equivalence")
	}
}

func TestStandardMinimizeUCQKeepsIncomparableAdjuncts(t *testing.T) {
	u := query.MustParseUnion("ans(x) :- R(x,x)\nans(x) :- S(x)")
	m := StandardMinimizeUCQ(u)
	if len(m.Adjuncts) != 2 {
		t.Errorf("incomparable adjuncts must both survive: %v", m)
	}
}

func TestStandardMinimizeUCQMergesEquivalentAdjuncts(t *testing.T) {
	u := query.MustParseUnion("ans(x) :- R(x,y)\nans(u) :- R(u,v), R(u,w)")
	m := StandardMinimizeUCQ(u)
	if len(m.Adjuncts) != 1 {
		t.Errorf("equivalent adjuncts must merge: %v", m)
	}
}

func TestRemoveRedundantAdjunctsMutualContainment(t *testing.T) {
	a := query.MustParse("ans(x) :- R(x,y)")
	b := query.MustParse("ans(u) :- R(u,v)")
	adjs := []*query.CQ{a, b}
	out := removeRedundantAdjuncts(adjs, func(j, i int) bool {
		return ContainedCQ(adjs[j], adjs[i])
	})
	if len(out) != 1 || out[0] != a {
		t.Errorf("mutual containment should keep the first adjunct: %v", out)
	}
}
