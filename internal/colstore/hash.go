package colstore

import (
	"math"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// Key addresses the join-key columns of one input, columnar when a View is
// available and row-major otherwise, so vectorized joins can mix sides (a
// scanned base table against a folded intermediate, say). Hashing is the
// allocation-free inlined FNV-1a of internal/types in both forms, so a
// columnar build probes a row-major set (and vice versa) with identical
// hashes — and identical Bloom filter bits.
type Key struct {
	view *View
	rows []types.Row
	cols []int
}

// ViewKey addresses cols of v's selected rows.
func ViewKey(v *View, cols []int) Key { return Key{view: v, cols: cols} }

// RowsKey addresses cols of a row slice (the fallback form).
func RowsKey(rows []types.Row, cols []int) Key { return Key{rows: rows, cols: cols} }

// Len returns the number of keyed rows.
func (k Key) Len() int {
	if k.view != nil {
		return k.view.Len()
	}
	return len(k.rows)
}

// HasNull reports whether logical row j's key contains NULL.
func (k Key) HasNull(j int) bool {
	if k.view != nil {
		return k.view.Frame.KeyHasNull(k.view.Index(j), k.cols)
	}
	r := k.rows[j]
	for _, c := range k.cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// Hash returns the composite FNV-1a key hash of logical row j, identical to
// types.Row.HashKey on the materialized row.
func (k Key) Hash(j int) uint64 {
	if k.view != nil {
		return k.view.Frame.HashKey(k.view.Index(j), k.cols)
	}
	return k.rows[j].HashKey(k.cols)
}

// value returns key column c (position in the key, not the schema) of
// logical row j.
func (k Key) value(j, c int) types.Value {
	if k.view != nil {
		return k.view.Frame.Col(k.cols[c]).Value(k.view.Index(j))
	}
	return k.rows[j][k.cols[c]]
}

// KeysEqual reports whether row i of a and row j of b agree on their key
// columns under types.Equal (grouping semantics — both sides are known
// non-NULL when this runs after a hash match).
func KeysEqual(a Key, i int, b Key, j int) bool {
	for c := range a.cols {
		if !types.Equal(a.value(i, c), b.value(j, c)) {
			return false
		}
	}
	return true
}

// KeySet is the vectorized semi-join build side: the distinct non-NULL keys
// of one input in a single flat open-addressing table (linear probing,
// power-of-two capacity sized for a load factor of at most 1/2), so neither
// build nor probe allocates per key. Unlike the row-path types.KeySet it
// never projects key rows. The table has two slot encodings:
//
//   - int mode, when the build key is one typed INTEGER view column: a slot
//     holds math.Float64bits(float64(v)) and a hit is that word compared
//     directly. This is the row path's match rule: types.Compare compares
//     numbers as float64, so 2^53 and 2^53+1 are one key and INTEGER 1
//     matches DOUBLE 1.0, while the float-equal values whose bits differ
//     (DOUBLE -0.0 against 0) also hash differently, so the row path never
//     matches them either.
//   - general mode, for every other key shape: a slot holds the key's
//     composite FNV hash and the build position, and a hash hit is
//     rechecked with KeysEqual.
//
// A built set is read-only, so probes may run concurrently.
type KeySet struct {
	src   Key
	ints  *Int64Column // the build column in int mode, nil in general mode
	words []uint64     // float bits (int mode) or FNV hash (general mode)
	pos   []int32      // build position + 1; 0 marks an empty slot
	shift uint
	n     int
}

// BuildKeySet returns the set of src's distinct non-NULL keys.
func BuildKeySet(src Key) *KeySet {
	n := src.Len()
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	s := &KeySet{
		src:   src,
		words: make([]uint64, 1<<bits),
		pos:   make([]int32, 1<<bits),
		shift: 64 - bits,
	}
	if src.view != nil && len(src.cols) == 1 {
		s.ints, _ = src.view.Frame.cols[src.cols[0]].(*Int64Column)
	}
	for j := 0; j < n; j++ {
		if s.ints != nil {
			i := src.view.Index(j)
			if !s.ints.Nulls.Get(i) {
				s.insert(math.Float64bits(float64(s.ints.Vals[i])), j)
			}
		} else if !src.HasNull(j) {
			s.insert(src.Hash(j), j)
		}
	}
	return s
}

// slot returns the home slot of w (Fibonacci hashing: float bits of small
// integers differ only in their high bits, so they must be mixed).
func (s *KeySet) slot(w uint64) int {
	return int((w * 0x9e3779b97f4a7c15) >> s.shift)
}

// insert adds build row j under word w unless an equal key is present.
func (s *KeySet) insert(w uint64, j int) {
	mask := len(s.pos) - 1
	for i := s.slot(w); ; i = (i + 1) & mask {
		p := s.pos[i]
		if p == 0 {
			s.words[i], s.pos[i] = w, int32(j+1)
			s.n++
			return
		}
		if s.words[i] == w && (s.ints != nil || KeysEqual(s.src, int(p-1), s.src, j)) {
			return
		}
	}
}

// Contains reports whether probe row j's key is present. NULL keys never
// match.
func (s *KeySet) Contains(p Key, j int) bool {
	var w uint64
	if s.ints != nil {
		var ok bool
		if w, ok = numericBits(p, j); !ok {
			return false
		}
	} else {
		if p.HasNull(j) {
			return false
		}
		w = p.Hash(j)
	}
	mask := len(s.pos) - 1
	for i := s.slot(w); ; i = (i + 1) & mask {
		q := s.pos[i]
		if q == 0 {
			return false
		}
		if s.words[i] == w && (s.ints != nil || KeysEqual(s.src, int(q-1), p, j)) {
			return true
		}
	}
}

// numericBits returns the float bits of single-column probe key j, or false
// when the key is NULL or not a number (TEXT and BOOLEAN never equal an
// INTEGER under types.Compare).
func numericBits(p Key, j int) (uint64, bool) {
	if p.view != nil {
		if c, ok := p.view.Frame.cols[p.cols[0]].(*Int64Column); ok {
			i := p.view.Index(j)
			if c.Nulls.Get(i) {
				return 0, false
			}
			return math.Float64bits(float64(c.Vals[i])), true
		}
	}
	switch v := p.value(j, 0); v.Kind() {
	case types.KindInt, types.KindFloat:
		return math.Float64bits(v.Float()), true
	}
	return 0, false
}

// Len returns the number of distinct keys.
func (s *KeySet) Len() int { return s.n }

// HashTable is the vectorized join build side: key hash → ascending build
// row positions, hash-partitioned so it can be built in parallel (same
// two-phase morsel scheme, and the same ascending-positions invariant, as
// the row path's engine hash table).
type HashTable struct {
	src   Key
	parts []map[uint64][]int32
}

// BuildHashTable indexes src's rows by key hash at degree par. NULL keys are
// skipped.
func BuildHashTable(src Key, par int) *HashTable {
	n := src.Len()
	nc := parallel.Chunks(n, par)
	if nc <= 1 {
		m := make(map[uint64][]int32, n)
		for j := 0; j < n; j++ {
			if src.HasNull(j) {
				continue
			}
			h := src.Hash(j)
			m[h] = append(m[h], int32(j))
		}
		return &HashTable{src: src, parts: []map[uint64][]int32{m}}
	}

	type entry struct {
		h   uint64
		pos int32
	}
	P := nc
	locals := make([][][]entry, nc)
	parallel.ForChunks(n, par, func(chunk, lo, hi int) {
		local := make([][]entry, P)
		est := (hi-lo)/P + 1
		for p := range local {
			local[p] = make([]entry, 0, est)
		}
		for j := lo; j < hi; j++ {
			if src.HasNull(j) {
				continue
			}
			h := src.Hash(j)
			local[h%uint64(P)] = append(local[h%uint64(P)], entry{h: h, pos: int32(j)})
		}
		locals[chunk] = local
	})

	parts := make([]map[uint64][]int32, P)
	parallel.Each(P, par, func(p int) {
		total := 0
		for c := 0; c < nc; c++ {
			total += len(locals[c][p])
		}
		m := make(map[uint64][]int32, total)
		for c := 0; c < nc; c++ { // chunk order => ascending positions
			for _, e := range locals[c][p] {
				m[e.h] = append(m[e.h], e.pos)
			}
		}
		parts[p] = m
	})
	return &HashTable{src: src, parts: parts}
}

// Each invokes yield for every build position whose key equals probe row j's
// key, in ascending position order. NULL probes match nothing.
func (t *HashTable) Each(p Key, j int, yield func(pos int32)) {
	if p.HasNull(j) {
		return
	}
	h := p.Hash(j)
	var bucket []int32
	if len(t.parts) == 1 {
		bucket = t.parts[0][h]
	} else {
		bucket = t.parts[h%uint64(len(t.parts))][h]
	}
	for _, pos := range bucket {
		if KeysEqual(t.src, int(pos), p, j) {
			yield(pos)
		}
	}
}
