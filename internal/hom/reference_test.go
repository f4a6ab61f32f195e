package hom

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"provmin/internal/query"
	"provmin/internal/workload"
)

// refSearch is the straightforward name-keyed homomorphism search: the
// variable mapping and its inverse are maps, and every homomorphism found
// is copied out. It is the oracle the slice-based search is checked
// against, down to which homomorphism is found first.
func refSearch(from, to *query.CQ, opts searchOpts, yield func(*Homomorphism) bool) {
	if opts.bijectiveAtom && len(from.Atoms) != len(to.Atoms) {
		return
	}
	if len(from.Head.Args) != len(to.Head.Args) || from.Head.Rel != to.Head.Rel {
		return
	}
	varMap := query.Subst{}
	inverse := map[query.Arg]bool{}
	atomMap := make([]int, len(from.Atoms))
	covered := make([]int, len(to.Atoms))
	bind := func(a, b query.Arg, bound *[]string) bool {
		if a.Const {
			return b.Const && a.Name == b.Name
		}
		if img, ok := varMap[a.Name]; ok {
			return img == b
		}
		if opts.injectiveVar {
			if b.Const || inverse[b] {
				return false
			}
			inverse[b] = true
		}
		varMap[a.Name] = b
		*bound = append(*bound, a.Name)
		return true
	}
	unbind := func(bound []string) {
		for _, v := range bound {
			delete(inverse, varMap[v])
			delete(varMap, v)
		}
	}
	diseqsMapped := func() bool {
		for _, d := range from.Diseqs {
			l, r := varMap.Apply(d.Left), varMap.Apply(d.Right)
			if l == r {
				return false
			}
			if !(l.Const && r.Const) && !to.HasDiseq(l, r) {
				return false
			}
		}
		return !opts.injectiveVar || len(from.Diseqs) == len(to.Diseqs)
	}
	var extend func(i int) bool
	extend = func(i int) bool {
		if i == len(from.Atoms) {
			for _, c := range covered {
				if opts.surjective && c == 0 {
					return true
				}
			}
			if !diseqsMapped() {
				return true
			}
			vm := query.Subst{}
			for k, v := range varMap {
				vm[k] = v
			}
			return yield(&Homomorphism{AtomMap: append([]int(nil), atomMap...), VarMap: vm})
		}
		at := from.Atoms[i]
		for j, cand := range to.Atoms {
			if cand.Rel != at.Rel || len(cand.Args) != len(at.Args) {
				continue
			}
			if opts.bijectiveAtom && covered[j] > 0 {
				continue
			}
			var bound []string
			ok := true
			for k, a := range at.Args {
				if !bind(a, cand.Args[k], &bound) {
					ok = false
					break
				}
			}
			if ok {
				atomMap[i] = j
				covered[j]++
				more := extend(i + 1)
				covered[j]--
				if !more {
					unbind(bound)
					return false
				}
			}
			unbind(bound)
		}
		return true
	}
	var headBound []string
	for i, a := range from.Head.Args {
		if !bind(a, to.Head.Args[i], &headBound) {
			return
		}
	}
	extend(0)
}

func refFind(from, to *query.CQ, opts searchOpts) (*Homomorphism, bool) {
	var found *Homomorphism
	refSearch(from, to, opts, func(h *Homomorphism) bool {
		found = h
		return false
	})
	return found, found != nil
}

// randomPair draws two small queries over shared relations, some of them
// with constants in place of variables and with disequalities, so every
// branch of the search (constants, consistency, diseq mapping) is hit.
func randomPair(rng *rand.Rand) (*query.CQ, *query.CQ) {
	p := workload.QueryParams{
		NumAtoms: 2 + rng.Intn(3), NumVars: 2 + rng.Intn(3), NumRels: 2, Arity: 2,
		HeadArity: rng.Intn(2), DiseqProb: 0.25, SelfJoinOK: true,
	}
	draw := func() *query.CQ {
		q := workload.RandomCQ(rng.Int63(), p)
		if rng.Intn(3) == 0 {
			vs := q.Vars()
			c := q.ApplySubst(query.Subst{vs[rng.Intn(len(vs))]: query.C(fmt.Sprint("c", rng.Intn(2)))})
			if !c.HasContradiction() {
				q = c
			}
		}
		return q
	}
	return draw(), draw()
}

func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var found, surj, iso int
	for i := 0; i < 3000; i++ {
		a, b := randomPair(rng)
		if i%5 == 0 {
			b = a.ApplySubst(renaming(a)) // isomorphic pairs are rare otherwise
		}
		for _, pair := range [][2]*query.CQ{{a, b}, {b, a}, {a, a}} {
			from, to := pair[0], pair[1]
			want, wok := refFind(from, to, searchOpts{})
			got, ok := Find(from, to)
			if ok != wok || !reflect.DeepEqual(got, want) {
				t.Fatalf("Find(%v, %v) = %v,%v; reference %v,%v", from, to, got, ok, want, wok)
			}
			if Exists(from, to) != wok {
				t.Fatalf("Exists(%v, %v) = %v; reference %v", from, to, !wok, wok)
			}
			wantS, wokS := refFind(from, to, searchOpts{surjective: true})
			gotS, okS := FindSurjective(from, to)
			if okS != wokS || !reflect.DeepEqual(gotS, wantS) {
				t.Fatalf("FindSurjective(%v, %v) = %v,%v; reference %v,%v", from, to, gotS, okS, wantS, wokS)
			}
			isoOpts := searchOpts{bijectiveAtom: true, injectiveVar: true}
			_, wantIso := refFind(from, to, isoOpts)
			wantIso = wantIso && len(from.Diseqs) == len(to.Diseqs) && len(from.Vars()) == len(to.Vars())
			if Isomorphic(from, to) != wantIso {
				t.Fatalf("Isomorphic(%v, %v) = %v; reference %v", from, to, !wantIso, wantIso)
			}
			if wok {
				found++
			}
			if wokS {
				surj++
			}
			if wantIso {
				iso++
			}
		}
		var refAut []query.Subst
		seen := map[string]bool{}
		refSearch(a, a, searchOpts{bijectiveAtom: true, injectiveVar: true}, func(h *Homomorphism) bool {
			if k := substKey(h.VarMap); !seen[k] {
				seen[k] = true
				refAut = append(refAut, h.VarMap)
			}
			return true
		})
		if got := Automorphisms(a); !reflect.DeepEqual(got, refAut) {
			t.Fatalf("Automorphisms(%v) = %v; reference %v", a, got, refAut)
		}
	}
	// The draw must exercise both outcomes of every test.
	if found == 0 || surj == 0 || iso == 0 || found == 9000 {
		t.Fatalf("degenerate draw: found=%d surjective=%d isomorphic=%d of 9000", found, surj, iso)
	}
}

func renaming(q *query.CQ) query.Subst {
	s := query.Subst{}
	for _, v := range q.Vars() {
		s[v] = query.V(v + "_r")
	}
	return s
}

// TestMatcherReusesBuffers pins the allocation profile of repeated
// containment tests on compiled queries: once a Matcher's buffers have
// grown, a test allocates nothing.
func TestMatcherReusesBuffers(t *testing.T) {
	from := Compile(query.MustParse("ans(x) :- R(x,y), R(y,z), x != z"))
	to := Compile(query.MustParse("ans(a) :- R(a,b), R(b,c), R(c,a), a != c"))
	var m Matcher
	if !m.Exists(from, to) {
		t.Fatal("expected a homomorphism")
	}
	if n := testing.AllocsPerRun(100, func() { m.Exists(from, to) }); n != 0 {
		t.Fatalf("Matcher.Exists allocates %v times per call; want 0", n)
	}
}
