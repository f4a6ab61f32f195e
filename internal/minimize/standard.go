package minimize

import (
	"fmt"

	"provmin/internal/hom"
	"provmin/internal/query"
)

// StandardMinimizeCQ computes the Chandra–Merlin minimal equivalent (the
// core) of a disequality-free conjunctive query: atoms are removed while a
// homomorphism from the original into the reduced query exists. By
// Theorem 3.9 the result is also the p-minimal equivalent of q within CQ.
func StandardMinimizeCQ(q *query.CQ) (*query.CQ, error) {
	if q.HasDiseqs() {
		return nil, fmt.Errorf("StandardMinimizeCQ requires a disequality-free query; got %v", q)
	}
	cur := q.Clone()
	for {
		reduced := false
		for i := range cur.Atoms {
			cand := cur.RemoveAtom(i)
			if len(cand.Atoms) == 0 || cand.Validate() != nil {
				continue
			}
			// cur ⊆ cand always (fewer conjuncts); equivalence needs
			// cand ⊆ cur, i.e. a homomorphism cur -> cand.
			if hom.Exists(cur, cand) {
				cur = cand
				reduced = true
				break
			}
		}
		if !reduced {
			return cur, nil
		}
	}
}

// MinimizeCCQ computes the minimal equivalent of a complete query in PTIME
// by removing duplicated relational atoms (Lemma 3.13). By Theorem 3.12 the
// result is both standard-minimal and p-minimal.
func MinimizeCCQ(q *query.CQ) (*query.CQ, error) {
	if !q.IsComplete() {
		return nil, fmt.Errorf("MinimizeCCQ requires a complete query; got %v", q)
	}
	return q.DedupAtoms(), nil
}

// StandardMinimizeCQNeq computes a standard-minimal (fewest relational
// atoms) equivalent of a conjunctive query with disequalities, following
// Klug: atoms are removed as long as the reduced query remains equivalent,
// decided with the general UCQ≠ equivalence procedure. Worst-case
// exponential, as is unavoidable.
func StandardMinimizeCQNeq(q *query.CQ) *query.CQ {
	cur := q.Clone()
	for {
		reduced := false
		for i := range cur.Atoms {
			cand := cur.RemoveAtom(i)
			if len(cand.Atoms) == 0 || cand.Validate() != nil {
				continue
			}
			if EquivalentCQ(cand, cur) {
				cur = cand
				reduced = true
				break
			}
		}
		if !reduced {
			return cur
		}
	}
}

// StandardMinimizeUCQ computes a standard-minimal equivalent of a union in
// the Sagiv–Yannakakis sense: every adjunct is minimized, and adjuncts
// contained in another adjunct (or, more precisely, in the rest of the
// union) are removed.
func StandardMinimizeUCQ(u *query.UCQ) *query.UCQ {
	adjs := make([]*query.CQ, len(u.Adjuncts))
	for i, q := range u.Adjuncts {
		switch {
		case !q.HasDiseqs():
			m, err := StandardMinimizeCQ(q)
			if err != nil {
				// Unreachable: q has no disequalities by the case guard.
				panic(err)
			}
			adjs[i] = m
		case q.IsComplete():
			m, err := MinimizeCCQ(q)
			if err != nil {
				panic(err)
			}
			adjs[i] = m
		default:
			adjs[i] = StandardMinimizeCQNeq(q)
		}
	}
	alive := removeRedundantAdjuncts(adjs, func(j, i int) bool {
		return ContainedCQ(adjs[j], adjs[i])
	})
	return &query.UCQ{Adjuncts: alive}
}

// removeRedundantAdjuncts drops every adjunct contained in another adjunct,
// keeping exactly one representative of each class of mutually contained
// (equivalent) adjuncts — the first in input order. contained(j, i)
// decides adjs[j] ⊆ adjs[i].
func removeRedundantAdjuncts(adjs []*query.CQ, contained func(j, i int) bool) []*query.CQ {
	n := len(adjs)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for j := 0; j < n; j++ {
		if !alive[j] {
			continue
		}
		for i := 0; i < n; i++ {
			if i == j || !alive[i] {
				continue
			}
			if !contained(j, i) {
				continue
			}
			if contained(i, j) {
				// Mutually contained: keep the earlier one.
				if i < j {
					alive[j] = false
					break
				}
				continue
			}
			alive[j] = false
			break
		}
	}
	var out []*query.CQ
	for i, a := range adjs {
		if alive[i] {
			out = append(out, a)
		}
	}
	return out
}

// IsStandardMinimalCQ reports whether no proper sub-query of q (removal of
// relational atoms) is equivalent to q; for CQ this characterizes the
// Chandra–Merlin core.
func IsStandardMinimalCQ(q *query.CQ) (bool, error) {
	if q.HasDiseqs() {
		return false, fmt.Errorf("IsStandardMinimalCQ requires a disequality-free query")
	}
	m, err := StandardMinimizeCQ(q)
	if err != nil {
		return false, err
	}
	return len(m.Atoms) == len(q.Atoms), nil
}
