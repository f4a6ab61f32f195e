package db

import (
	"errors"
	"fmt"
)

// Interning: every domain value an instance has ever seen is assigned a
// dense uint32 id by a per-instance SymbolTable, at Add time (a standalone
// relation interns into a private table of its own). Relations keep
// the interned image of each row next to the string rows, so the evaluator
// can join on fixed-width integer keys (compare one machine word) instead
// of re-hashing length-prefixed strings per probe. Ids are instance-local
// and never escape the process boundary as identifiers — snapshots persist
// the table only so a recovered instance re-interns to the same ids (and
// skips nothing on replay); results are always resolved back to strings.

// invalidID is the reserved symbol id 0: never assigned to a value, so the
// evaluator can use 0 as its "unbound variable" sentinel.
const invalidID uint32 = 0

// SymbolTable interns domain values of one instance into dense uint32 ids,
// starting at 1 (id 0 is reserved). It also memoizes a 64-bit hash per
// symbol — computed once at intern time — which the distinct-count sketches
// and the join partitioner consume, so neither ever re-hashes a string.
//
// Concurrency contract: reads (Lookup, Value, Hash) may run concurrently
// with each other; Intern mutates and requires external exclusion against
// both reads and writes — the same single-writer contract Relation already
// has (the engine's per-instance RW lock provides it).
type SymbolTable struct {
	ids  map[string]uint32
	vals []string // vals[id]; vals[0] is the reserved placeholder
	hash []uint64 // hash[id]: avalanche-mixed FNV-1a of the symbol
}

// NewSymbolTable creates an empty table.
func NewSymbolTable() *SymbolTable {
	return &SymbolTable{
		ids:  map[string]uint32{},
		vals: []string{""},
		hash: []uint64{0},
	}
}

// Intern returns the id of v, assigning the next dense id on first sight.
func (s *SymbolTable) Intern(v string) uint32 {
	if id, ok := s.ids[v]; ok {
		return id
	}
	id := uint32(len(s.vals))
	s.ids[v] = id
	s.vals = append(s.vals, v)
	s.hash = append(s.hash, symbolHash(v))
	return id
}

// Lookup returns the id of v without assigning one; ok is false when v has
// never been interned (and therefore occurs in no stored row).
func (s *SymbolTable) Lookup(v string) (uint32, bool) {
	id, ok := s.ids[v]
	return id, ok
}

// Value resolves an id back to its string. Panics on the reserved id 0 or
// an id never assigned — both indicate evaluator bugs, not data.
func (s *SymbolTable) Value(id uint32) string {
	if id == invalidID || int(id) >= len(s.vals) {
		panic("db: symbol id out of range")
	}
	return s.vals[id]
}

// Hash returns the memoized 64-bit hash of the symbol.
func (s *SymbolTable) Hash(id uint32) uint64 { return s.hash[id] }

// Len returns the number of interned symbols (the reserved id excluded).
func (s *SymbolTable) Len() int { return len(s.vals) - 1 }

// Symbols returns every interned value in id order (id 1 first). The slice
// is a copy; snapshot writers embed it in the envelope.
func (s *SymbolTable) Symbols() []string {
	out := make([]string, len(s.vals)-1)
	copy(out, s.vals[1:])
	return out
}

// symbolHash is FNV-1a finished with a murmur-style avalanche mix (the same
// finisher the cluster ring uses): FNV alone diffuses low bits poorly, and
// both the sketches and the join partitioner take bit slices.
func symbolHash(v string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

var errSeedNonEmpty = errors.New("db: SeedSymbols on a non-empty symbol table")

func errSeedDuplicate(v string) error {
	return fmt.Errorf("db: SeedSymbols: duplicate symbol %q", v)
}

// SeedSymbols pre-populates the instance's symbol table from a persisted
// symbol list (id 1 first), so rows decoded afterwards intern to exactly
// the ids the snapshot writer used. It must run on a fresh instance; a
// duplicate entry means the file is corrupt.
func (d *Instance) SeedSymbols(symbols []string) error {
	if d.symbols.Len() > 0 {
		return errSeedNonEmpty
	}
	for _, v := range symbols {
		if _, ok := d.symbols.Lookup(v); ok {
			return errSeedDuplicate(v)
		}
		d.symbols.Intern(v)
	}
	return nil
}

// Symbols returns the instance's symbol table.
func (d *Instance) Symbols() *SymbolTable { return d.symbols }
