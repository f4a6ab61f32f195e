package eval

import (
	"provmin/internal/db"
	"provmin/internal/query"
)

// This file orders the atoms of a hash join. Plans affect cost, never
// results: every order yields the same set of assignments.

// planAtomOrder picks the join order for a hash evaluation: the
// cardinality-statistics planner, or the size-based selectivity order when
// statistics are ablated away.
func planAtomOrder(q *query.CQ, d *db.Instance, opts Options) []int {
	if opts.NoStats {
		return planOrder(q, d)
	}
	return planOrderCost(q, d)
}

// atomEstimate estimates how many rows of rel an atom can match: the
// relation size, tightened by the index count of the atom's most selective
// constant column. A constant the relation never stored has no symbol id
// and matches nothing.
func atomEstimate(rel *db.Relation, at query.Atom) int {
	e := rel.Len()
	for col, a := range at.Args {
		if a.Const {
			id, _ := rel.Symbols().Lookup(a.Name) // miss: the reserved id, in no row
			if c := len(rel.RowsWithID(col, id)); c < e {
				e = c
			}
		}
	}
	return e
}

// planOrderCost is the cost-based planner: it greedily grows the join
// prefix by the atom minimizing the estimated intermediate cardinality
//
//	card' = card × rows(atom) / Π over bound join columns max(1, distinct(col))
//
// with per-column distinct counts taken from the relations' HyperLogLog
// sketches. The size-based planner treats a join through a 2-distinct
// column and one through a key column identically; the division above is
// exactly what tells them apart. Atoms sharing a bound variable are still
// preferred over cross products regardless of estimate, and ties keep body
// order, so plans stay deterministic.
func planOrderCost(q *query.CQ, d *db.Instance) []int {
	n := len(q.Atoms)
	base := make([]float64, n)
	rels := make([]*db.Relation, n)
	for i, at := range q.Atoms {
		rel := d.Lookup(at.Rel)
		rels[i] = rel
		if rel == nil {
			continue // base 0: scheduled first, terminates evaluation at once
		}
		base[i] = float64(atomEstimate(rel, at))
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	bound := map[string]bool{}
	card := 1.0
	for len(order) < n {
		best, bestShares := -1, false
		bestCard := 0.0
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			sel := 1.0
			shares := false
			if rels[i] != nil {
				for col, a := range q.Atoms[i].Args {
					if a.Const || !bound[a.Name] {
						continue
					}
					shares = true
					if dist, ok := rels[i].DistinctEstimate(col); ok && dist > 1 {
						sel /= dist
					}
				}
			}
			cand := card * base[i] * sel
			switch {
			case best == -1,
				shares && !bestShares,
				shares == bestShares && cand < bestCard:
				best, bestShares, bestCard = i, shares, cand
			}
		}
		order = append(order, best)
		used[best] = true
		if card = bestCard; card < 1 {
			card = 1
		}
		for _, a := range q.Atoms[best].Args {
			if !a.Const {
				bound[a.Name] = true
			}
		}
	}
	return order
}

// planOrder is the selectivity planner: every atom's cardinality is
// estimated by atomEstimate; the order then greedily extends the joined
// prefix, always preferring atoms that share a bound variable (so cross
// products happen only when the query itself is disconnected) and, among
// those, the smallest estimate.
func planOrder(q *query.CQ, d *db.Instance) []int {
	n := len(q.Atoms)
	est := make([]int, n)
	for i, at := range q.Atoms {
		if rel := d.Lookup(at.Rel); rel != nil {
			est[i] = atomEstimate(rel, at)
		} // else est 0: schedule first, terminates evaluation at once
	}
	order := make([]int, 0, n)
	used := make([]bool, n)
	boundVars := map[string]bool{}
	for len(order) < n {
		best, bestShares := -1, false
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			shares := false
			for _, a := range q.Atoms[i].Args {
				if !a.Const && boundVars[a.Name] {
					shares = true
					break
				}
			}
			switch {
			case best == -1,
				shares && !bestShares,
				shares == bestShares && est[i] < est[best]:
				best, bestShares = i, shares
			}
		}
		order = append(order, best)
		used[best] = true
		for _, a := range q.Atoms[best].Args {
			if !a.Const {
				boundVars[a.Name] = true
			}
		}
	}
	return order
}
