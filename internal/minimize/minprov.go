package minimize

import (
	"provmin/internal/hom"
	"provmin/internal/query"
)

// Steps records the intermediate queries of Algorithm 1 for inspection;
// Section 5 analyzes the effect of each step on provenance polynomials, and
// the paper-example driver replays them.
type Steps struct {
	Input *query.UCQ
	QI    *query.UCQ // after Step I: canonical rewriting of every adjunct
	QII   *query.UCQ // after Step II: per-adjunct minimization
	QIII  *query.UCQ // after Step III: contained adjuncts removed (output)
}

// MinProv implements Algorithm 1: given a UCQ≠ query it returns an
// equivalent p-minimal query (Theorem 4.6, Proposition 4.8). The output
// realizes the core provenance of the input on every abstractly-tagged
// database. Worst-case output size is exponential in the input, which
// Theorem 4.10 shows is unavoidable.
func MinProv(u *query.UCQ) *query.UCQ {
	return MinProvSteps(u).QIII
}

// MinProvCQ runs MinProv on a single conjunctive query.
func MinProvCQ(q *query.CQ) *query.UCQ {
	return MinProv(query.Single(q))
}

// MinProvSteps runs Algorithm 1 and returns all intermediate queries.
func MinProvSteps(u *query.UCQ) Steps {
	st := Steps{Input: u}

	// Step I: replace each adjunct by its canonical rewriting with respect
	// to the full set of constants of the query.
	st.QI = CanUCQ(u, nil)

	// Step II: minimize each adjunct. Every adjunct is complete, so by
	// Lemma 3.13 minimization is duplicate-atom removal (PTIME).
	adjII := make([]*query.CQ, len(st.QI.Adjuncts))
	for i, q := range st.QI.Adjuncts {
		adjII[i] = q.DedupAtoms()
	}
	st.QII = &query.UCQ{Adjuncts: adjII}

	// Step III: remove adjuncts contained in another adjunct. All adjuncts
	// are complete with respect to every constant in the query, so
	// containment Qj ⊆ Qi reduces to the existence of a homomorphism
	// Qi -> Qj (Theorem 3.1). The O(n²) tests share one compiled form per
	// adjunct and one set of search buffers.
	compiled := make([]*hom.Compiled, len(adjII))
	for i, q := range adjII {
		compiled[i] = hom.Compile(q)
	}
	var m hom.Matcher
	alive := removeRedundantAdjuncts(adjII, func(j, i int) bool {
		return m.Exists(compiled[i], compiled[j])
	})
	st.QIII = &query.UCQ{Adjuncts: alive}
	return st
}

// IsPMinimalWitness checks, over the supplied equivalent candidates, that
// none yields strictly terser provenance than minProv's output would allow.
// It is a testing aid: true p-minimality quantifies over all equivalent
// queries and is certified by Proposition 4.8; this function cross-checks
// the implementation against explicit candidate sets.
func IsPMinimalWitness(out *query.UCQ, candidates []*query.UCQ) bool {
	for _, c := range candidates {
		if !Equivalent(out, c) {
			return false
		}
	}
	return true
}
