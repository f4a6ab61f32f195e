package minimize

import (
	"provmin/internal/hom"
	"provmin/internal/query"
)

// Contained decides u1 ⊆ u2 for arbitrary UCQ≠ queries. The procedure
// rewrites every adjunct of u1 into completions with respect to the full
// constant set of both queries; each completion is then complete w.r.t.
// Const(u2), so by Lemma 4.9 it is contained in u2 iff it is contained in
// some adjunct of u2, which by Theorem 3.1 holds iff that adjunct maps
// homomorphically into the completion.
func Contained(u1, u2 *query.UCQ) bool {
	all := unionConsts(u1.Consts(), u2.Consts())
	targets := make([]*hom.Compiled, len(u2.Adjuncts))
	for i, q2 := range u2.Adjuncts {
		targets[i] = hom.Compile(q2)
	}
	var m hom.Matcher
	for _, q := range u1.Adjuncts {
		for _, qc := range PossibleCompletions(q, all) {
			if !completionContainedIn(&m, hom.Compile(qc), targets) {
				return false
			}
		}
	}
	return true
}

func completionContainedIn(m *hom.Matcher, qc *hom.Compiled, u []*hom.Compiled) bool {
	for _, q2 := range u {
		if m.Exists(q2, qc) {
			return true
		}
	}
	return false
}

// Equivalent decides u1 ≡ u2 (Def. 2.8) for UCQ≠ queries.
func Equivalent(u1, u2 *query.UCQ) bool {
	return Contained(u1, u2) && Contained(u2, u1)
}

// ContainedCQ decides q1 ⊆ q2 for arbitrary CQ≠ queries (wrapping the
// union-level procedure).
func ContainedCQ(q1, q2 *query.CQ) bool {
	return Contained(query.Single(q1), query.Single(q2))
}

// EquivalentCQ decides q1 ≡ q2 for arbitrary CQ≠ queries.
func EquivalentCQ(q1, q2 *query.CQ) bool {
	return ContainedCQ(q1, q2) && ContainedCQ(q2, q1)
}
