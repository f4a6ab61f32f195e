// Package hom implements homomorphisms between conjunctive queries with
// disequalities (Def. 2.10), isomorphism and automorphism counting, and the
// homomorphism-based containment tests of Theorem 3.1 together with the
// provenance-order sufficient condition of Theorem 3.3 (surjective
// homomorphisms).
package hom

import (
	"math"

	"provmin/internal/query"
)

// Homomorphism is a mapping h : Q -> Q' from the atoms of Q to the atoms of
// Q' inducing a mapping on arguments (Def. 2.10). AtomMap[i] is the index in
// Q'.Atoms of the image of Q.Atoms[i]; VarMap is the induced argument
// mapping restricted to variables (constants always map to themselves).
type Homomorphism struct {
	AtomMap []int
	VarMap  query.Subst
}

// Find returns some homomorphism from `from` to `to`, if one exists.
func Find(from, to *query.CQ) (*Homomorphism, bool) {
	return find(Compile(from), Compile(to), searchOpts{})
}

// Exists reports whether any homomorphism from `from` to `to` exists.
func Exists(from, to *query.CQ) bool {
	var m Matcher
	return m.Exists(Compile(from), Compile(to))
}

// Matcher runs homomorphism tests on compiled queries, reusing one set of
// search buffers across calls: a caller testing the same queries many
// times — the pairwise containment tests of Algorithm 1's Step III —
// compiles each query once and asks one Matcher. The zero value is ready
// to use; a Matcher is not safe for concurrent use.
type Matcher struct {
	s homSearch
}

// Exists reports whether any homomorphism from `from` to `to` exists.
func (m *Matcher) Exists(from, to *Compiled) bool {
	return m.s.run(from, to, searchOpts{}, nil)
}

// FindSurjective returns a homomorphism from `from` to `to` that is
// surjective on relational atoms, if one exists (Thm. 3.3's hypothesis).
func FindSurjective(from, to *query.CQ) (*Homomorphism, bool) {
	return find(Compile(from), Compile(to), searchOpts{surjective: true})
}

// ExistsSurjective reports whether a homomorphism from `from` to `to` exists
// that is surjective on relational atoms.
func ExistsSurjective(from, to *query.CQ) bool {
	_, ok := FindSurjective(from, to)
	return ok
}

// TerserBySurjectivity reports the Theorem 3.3 sufficient condition for
// q ≤_P qp among equivalent queries: a homomorphism from qp to q surjective
// on relational atoms.
func TerserBySurjectivity(q, qp *query.CQ) bool {
	return ExistsSurjective(qp, q)
}

func find(from, to *Compiled, opts searchOpts) (*Homomorphism, bool) {
	var found *Homomorphism
	var s homSearch
	s.run(from, to, opts, func(s *homSearch) bool {
		found = s.homomorphism()
		return false
	})
	return found, found != nil
}

// term is one argument of a compiled query: a variable by its dense index
// (t >= 0), or a constant by the complement of its index (t < 0, constant
// ^t). Each distinct argument of a query has exactly one term, so equal
// terms of one query are equal arguments.
type term int32

// unbound is the homSearch.img entry of a variable not yet mapped; no
// query has 2³¹ distinct constants, so it is no constant's term.
const unbound term = math.MinInt32

type compiledAtom struct {
	rel  string
	args []term
}

// Compiled is a conjunctive query prepared for homomorphism search: its
// variables and constants are numbered densely in order of first
// occurrence (head, atoms, disequalities), so a search keeps its variable
// mapping in slices indexed by number instead of maps keyed by name. A
// Compiled is immutable and safe for concurrent use.
type Compiled struct {
	q      *query.CQ
	vars   []string // dense index -> variable name
	consts []string // dense index -> constant value
	head   []term
	atoms  []compiledAtom
	diseqs [][2]term
}

// Compile prepares q for repeated homomorphism tests.
func Compile(q *query.CQ) *Compiled {
	c := &Compiled{q: q}
	// Small and local, so typical queries number their arguments without
	// a heap allocation.
	varIdx := make(map[string]term, 8)
	constIdx := make(map[string]term, 8)
	toTerm := func(a query.Arg) term {
		if a.Const {
			t, ok := constIdx[a.Name]
			if !ok {
				t = ^term(len(c.consts))
				constIdx[a.Name] = t
				c.consts = append(c.consts, a.Name)
			}
			return t
		}
		t, ok := varIdx[a.Name]
		if !ok {
			t = term(len(c.vars))
			varIdx[a.Name] = t
			c.vars = append(c.vars, a.Name)
		}
		return t
	}
	nargs := len(q.Head.Args)
	for _, at := range q.Atoms {
		nargs += len(at.Args)
	}
	c.vars = make([]string, 0, nargs+2*len(q.Diseqs))
	flat := make([]term, 0, nargs)
	for _, a := range q.Head.Args {
		flat = append(flat, toTerm(a))
	}
	c.head = flat[:len(q.Head.Args):len(q.Head.Args)]
	c.atoms = make([]compiledAtom, len(q.Atoms))
	for i, at := range q.Atoms {
		start := len(flat)
		for _, a := range at.Args {
			flat = append(flat, toTerm(a))
		}
		c.atoms[i] = compiledAtom{rel: at.Rel, args: flat[start:len(flat):len(flat)]}
	}
	if len(q.Diseqs) > 0 {
		c.diseqs = make([][2]term, len(q.Diseqs))
		for i, d := range q.Diseqs {
			c.diseqs[i] = [2]term{toTerm(d.Left), toTerm(d.Right)}
		}
	}
	return c
}

// arg decodes a term of this query back to its query.Arg.
func (c *Compiled) arg(t term) query.Arg {
	if t < 0 {
		return query.C(c.consts[^t])
	}
	return query.V(c.vars[t])
}

type searchOpts struct {
	surjective    bool // image must cover every atom of `to`
	bijectiveAtom bool // atom map must be a bijection (isomorphism search)
	injectiveVar  bool // variable map must be injective, variables to variables
}

// run enumerates homomorphisms from `from` to `to` under the given
// constraints, calling yield with the search state at each; yield returns
// false to stop, and a nil yield stops at the first. The state is only
// valid during the call. run reports whether any homomorphism was found;
// its buffers stay in s for the next run.
func (s *homSearch) run(from, to *Compiled, opts searchOpts, yield func(*homSearch) bool) bool {
	if opts.bijectiveAtom && len(from.atoms) != len(to.atoms) {
		return false
	}
	// Condition 2 of Def. 2.10: the head of `from` maps to the head of `to`.
	if len(from.head) != len(to.head) || from.q.Head.Rel != to.q.Head.Rel {
		return false
	}
	s.reset(from, to, opts, yield)
	ok := true
	for i, a := range from.head {
		if !s.bindArg(a, to.head[i]) {
			ok = false
			break
		}
	}
	if ok {
		s.extend(0)
	}
	s.from, s.to, s.yield = nil, nil, nil
	return s.found
}

type homSearch struct {
	from, to *Compiled
	opts     searchOpts
	yield    func(*homSearch) bool
	found    bool
	img      []term // per `from` variable: its image in `to`, or unbound
	taken    []bool // per `to` variable: already an image (injectivity)
	atomMap  []int
	covered  []int  // usage count per `to` atom
	bound    []term // `from` variables in binding order, for rollback
}

func (s *homSearch) reset(from, to *Compiled, opts searchOpts, yield func(*homSearch) bool) {
	s.from, s.to, s.opts, s.yield, s.found = from, to, opts, yield, false
	s.img = resize(s.img, len(from.vars))
	for i := range s.img {
		s.img[i] = unbound
	}
	s.taken = resize(s.taken, len(to.vars))
	clear(s.taken)
	s.atomMap = resize(s.atomMap, len(from.atoms))
	s.covered = resize(s.covered, len(to.atoms))
	clear(s.covered)
	s.bound = resize(s.bound, len(from.vars))[:0]
}

func resize[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}

// bindArg attempts to record that argument a of `from` maps to argument b of
// `to`, extending img. It returns false on conflict. Newly bound variables
// are pushed on s.bound for rollback.
func (s *homSearch) bindArg(a, b term) bool {
	if a < 0 {
		// Condition 4: constants map to occurrences of the same constant.
		return b < 0 && s.from.consts[^a] == s.to.consts[^b]
	}
	if img := s.img[a]; img != unbound {
		return img == b // condition 3: consistency
	}
	if s.opts.injectiveVar {
		if b < 0 || s.taken[b] {
			return false
		}
		s.taken[b] = true
	}
	s.img[a] = b
	s.bound = append(s.bound, a)
	return true
}

func (s *homSearch) rollbackTo(mark int) {
	for len(s.bound) > mark {
		v := s.bound[len(s.bound)-1]
		s.bound = s.bound[:len(s.bound)-1]
		if s.opts.injectiveVar {
			s.taken[s.img[v]] = false
		}
		s.img[v] = unbound
	}
}

func (s *homSearch) extend(i int) bool {
	if i == len(s.from.atoms) {
		if s.opts.surjective && !s.allCovered() {
			return true
		}
		if !s.diseqsMapped() {
			return true
		}
		s.found = true
		return s.yield != nil && s.yield(s)
	}
	// Surjectivity pruning: the remaining atoms must be able to cover the
	// still-uncovered atoms of `to`.
	if s.opts.surjective {
		uncovered := 0
		for _, c := range s.covered {
			if c == 0 {
				uncovered++
			}
		}
		if uncovered > len(s.from.atoms)-i {
			return true
		}
	}
	at := s.from.atoms[i]
	for j, cand := range s.to.atoms {
		if cand.rel != at.rel || len(cand.args) != len(at.args) {
			continue
		}
		if s.opts.bijectiveAtom && s.covered[j] > 0 {
			continue
		}
		mark := len(s.bound)
		ok := true
		for k, a := range at.args {
			if !s.bindArg(a, cand.args[k]) {
				ok = false
				break
			}
		}
		if ok {
			s.atomMap[i] = j
			s.covered[j]++
			if !s.extend(i + 1) {
				s.covered[j]--
				s.rollbackTo(mark)
				return false
			}
			s.covered[j]--
		}
		s.rollbackTo(mark)
	}
	return true
}

func (s *homSearch) allCovered() bool {
	for _, c := range s.covered {
		if c == 0 {
			return false
		}
	}
	return true
}

// image returns the image of a `from` term as an argument of `to`. A
// variable left unmapped (one occurring only in disequalities) maps to
// itself.
func (s *homSearch) image(t term) query.Arg {
	switch {
	case t < 0:
		return query.C(s.from.consts[^t])
	case s.img[t] == unbound:
		return query.V(s.from.vars[t])
	default:
		return s.to.arg(s.img[t])
	}
}

// diseqsMapped checks condition 1 of Def. 2.10 for disequality atoms: every
// disequality of `from` must map to a disequality present in `to`. A
// disequality whose sides map to two distinct constants is accepted as
// vacuously mapped (distinct constants are unequal by definition); a
// disequality collapsing to identical sides can never be mapped. For
// isomorphisms the disequality sets must correspond exactly; with an
// injective variable map it suffices that the counts agree as well.
func (s *homSearch) diseqsMapped() bool {
	for _, d := range s.from.diseqs {
		l, r := s.image(d[0]), s.image(d[1])
		if l == r {
			return false
		}
		if l.Const && r.Const {
			continue // distinct constants
		}
		if !s.to.q.HasDiseq(l, r) {
			return false
		}
	}
	return !s.opts.injectiveVar || len(s.from.diseqs) == len(s.to.diseqs)
}

// homomorphism copies the current mapping out of the search state.
func (s *homSearch) homomorphism() *Homomorphism {
	am := make([]int, len(s.atomMap))
	copy(am, s.atomMap)
	vm := make(query.Subst, len(s.bound))
	for _, v := range s.bound {
		vm[s.from.vars[v]] = s.to.arg(s.img[v])
	}
	return &Homomorphism{AtomMap: am, VarMap: vm}
}
