package hom

import (
	"sort"
	"strings"

	"provmin/internal/query"
)

// Isomorphic reports whether a and b are isomorphic: there is a bijective
// mapping of atoms inducing a variable bijection that preserves heads,
// constants and the disequality sets exactly. The canonical rewriting
// (Def. 4.1) identifies completions up to isomorphism.
func Isomorphic(a, b *query.CQ) bool {
	if len(a.Atoms) != len(b.Atoms) || len(a.Diseqs) != len(b.Diseqs) {
		return false
	}
	if len(a.Vars()) != len(b.Vars()) {
		return false
	}
	var s homSearch
	return s.run(Compile(a), Compile(b), searchOpts{bijectiveAtom: true, injectiveVar: true}, nil)
}

// Automorphisms returns the distinct automorphisms of q: isomorphisms from q
// to itself, identified by their variable mapping. Lemma 5.7 ties the
// coefficient of a monomial in the core provenance to this count for the
// adjunct that produced it.
func Automorphisms(q *query.CQ) []query.Subst {
	seen := map[string]bool{}
	var out []query.Subst
	c := Compile(q)
	var s homSearch
	s.run(c, c, searchOpts{bijectiveAtom: true, injectiveVar: true}, func(s *homSearch) bool {
		vm := s.homomorphism().VarMap
		if k := substKey(vm); !seen[k] {
			seen[k] = true
			out = append(out, vm)
		}
		return true
	})
	return out
}

// CountAutomorphisms returns |Aut(q)|.
func CountAutomorphisms(q *query.CQ) int { return len(Automorphisms(q)) }

func substKey(s query.Subst) string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteString("->")
		b.WriteString(s[k].String())
		b.WriteByte(';')
	}
	return b.String()
}
