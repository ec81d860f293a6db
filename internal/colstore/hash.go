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
// of one input, held flat so neither build nor probe allocates per key.
// Unlike the row-path types.KeySet it never projects key rows. It has three
// encodings:
//
//   - dense mode, when the build key is one typed INTEGER view column whose
//     non-NULL values span hi-lo < 64·n+64 (n non-NULL values) and all have
//     |v| < 2^52: one bit per value of [lo, hi]. Below 2^52 float64 is
//     exact, so the float-bit rule of int mode reduces to integer equality:
//     INTEGER 1 matches DOUBLE 1.0, while DOUBLE 1.5, -0.0, NaN and ±Inf
//     match nothing.
//   - int mode, for any other single typed INTEGER view column: an
//     open-addressing table (linear probing, power-of-two capacity sized for
//     a load factor of at most 1/2) whose slot holds
//     math.Float64bits(float64(v)); a hit is that word compared directly.
//     This is the row path's match rule: types.Compare compares numbers as
//     float64, so 2^53 and 2^53+1 are one key and INTEGER 1 matches DOUBLE
//     1.0, while the float-equal values whose bits differ (DOUBLE -0.0
//     against 0) also hash differently, so the row path never matches them
//     either.
//   - general mode, for every other key shape: the same table, but a slot
//     holds the key's composite FNV hash and the build position, and a hash
//     hit is rechecked with KeysEqual.
//
// A built set is read-only, so probes may run concurrently.
type KeySet struct {
	src   Key
	ints  *Int64Column // the build column in dense and int mode, nil in general mode
	bits  []uint64     // dense mode: bit v-lo is set for each key v; nil otherwise
	lo    int64        // dense mode: the smallest key
	span  uint64       // dense mode: hi-lo+1
	words []uint64     // float bits (int mode) or FNV hash (general mode)
	pos   []int32      // build position + 1; 0 marks an empty slot
	shift uint
	n     int
}

// denseLimit is 2^52: every integer of smaller magnitude is an exact float64
// whose neighbours are exact too, so float-bit equality is integer equality.
const denseLimit = 1 << 52

// BuildKeySet returns the set of src's distinct non-NULL keys.
func BuildKeySet(src Key) *KeySet {
	s := &KeySet{src: src}
	if src.view != nil && len(src.cols) == 1 {
		s.ints, _ = src.view.Frame.cols[src.cols[0]].(*Int64Column)
	}
	if s.ints != nil && s.buildDense() {
		return s
	}
	n := src.Len()
	bits := uint(1)
	for 1<<bits < 2*n {
		bits++
	}
	s.words = make([]uint64, 1<<bits)
	s.pos = make([]int32, 1<<bits)
	s.shift = 64 - bits
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

// buildDense fills the dense bitmap when s.ints's selected non-NULL values
// qualify (see KeySet), and reports whether they did.
func (s *KeySet) buildDense() bool {
	v, vals := s.src.view, s.ints.Vals
	lo, hi, n := int64(denseLimit), int64(-denseLimit), 0
	for j, m := 0, v.Len(); j < m; j++ {
		i := v.Index(j)
		if s.ints.Nulls.Get(i) {
			continue
		}
		x := vals[i]
		if x <= -denseLimit || x >= denseLimit {
			return false
		}
		lo, hi, n = min(lo, x), max(hi, x), n+1
	}
	if n == 0 || hi-lo >= 64*int64(n)+64 {
		return false
	}
	s.lo, s.span = lo, uint64(hi-lo+1)
	s.bits = make([]uint64, (s.span+63)/64)
	for j, m := 0, v.Len(); j < m; j++ {
		i := v.Index(j)
		if s.ints.Nulls.Get(i) {
			continue
		}
		d := uint64(vals[i] - lo)
		if w := &s.bits[d>>6]; *w&(1<<(d&63)) == 0 {
			*w |= 1 << (d & 63)
			s.n++
		}
	}
	return true
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

// hasInt reports whether INTEGER x is a key of a dense set. The unsigned
// difference wraps for any x outside [lo, hi], so one compare bounds it.
func (s *KeySet) hasInt(x int64) bool {
	d := uint64(x - s.lo)
	return d < s.span && s.bits[d>>6]&(1<<(d&63)) != 0
}

// hasBits reports whether the number with float bits w is a key of a dense
// or int-mode set.
func (s *KeySet) hasBits(w uint64) bool {
	if s.bits != nil {
		f := math.Float64frombits(w)
		if !(f > -denseLimit && f < denseLimit) {
			return false // NaN, ±Inf and magnitudes no key reaches
		}
		x := int64(f)
		return math.Float64bits(float64(x)) == w && s.hasInt(x) // rejects 1.5 and -0.0
	}
	mask := len(s.pos) - 1
	for i := s.slot(w); ; i = (i + 1) & mask {
		if s.pos[i] == 0 {
			return false
		}
		if s.words[i] == w {
			return true
		}
	}
}

// Contains reports whether probe row j's key is present. NULL keys never
// match.
func (s *KeySet) Contains(p Key, j int) bool {
	if s.ints != nil {
		w, ok := numericBits(p, j)
		return ok && s.hasBits(w)
	}
	if p.HasNull(j) {
		return false
	}
	w := p.Hash(j)
	mask := len(s.pos) - 1
	for i := s.slot(w); ; i = (i + 1) & mask {
		q := s.pos[i]
		if q == 0 {
			return false
		}
		if s.words[i] == w && KeysEqual(s.src, int(q-1), p, j) {
			return true
		}
	}
}

// Filter appends to dst the probe positions j in [lo, hi) whose key is
// present, in ascending order: the batch form of Contains. A single typed
// INTEGER view probe against a dense or int-mode set resolves the column,
// its null words and the selection vector once and runs a tight loop; every
// other shape probes row by row.
func (s *KeySet) Filter(p Key, lo, hi int, dst []int32) []int32 {
	var c *Int64Column
	if s.ints != nil && p.view != nil {
		c, _ = p.view.Frame.cols[p.cols[0]].(*Int64Column)
	}
	if c == nil {
		for j := lo; j < hi; j++ {
			if s.Contains(p, j) {
				dst = append(dst, int32(j))
			}
		}
		return dst
	}
	var nulls []uint64
	if c.Nulls != nil {
		nulls = c.Nulls.words
	}
	vals, sel := c.Vals, p.view.Sel
	for j := lo; j < hi; j++ {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		if nulls != nil && nulls[i>>6]&(1<<(i&63)) != 0 {
			continue
		}
		var hit bool
		if s.bits != nil {
			hit = s.hasInt(vals[i])
		} else {
			hit = s.hasBits(math.Float64bits(float64(vals[i])))
		}
		if hit {
			dst = append(dst, int32(j))
		}
	}
	return dst
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
