package engine

import (
	"fmt"

	"resultdb/internal/parallel"
	"resultdb/internal/types"
)

// JoinAllProject is JoinAll followed by Project onto projection (nil keeps
// every column): the same rows, in the same order, with the same errors. It
// is computed late-materialized. Every intermediate result is a list of
// row-position tuples, one position per joined input, and only the projected
// columns of the final tuples are materialized, once, into one value block.
// The join order, build/probe side choice and probe emit order are JoinAll's,
// so the output order is too. The input relations are read, never modified.
// It is the client post-join of a relationship-preserving subdatabase.
func JoinAllProject(preds []JoinPred, rels map[string]*Relation, projection []Attr) (*Relation, error) {
	return joinAllProject(preds, rels, projection, 0)
}

// joinAllProject is JoinAllProject at degree par (0 = auto); the result is
// identical at any degree.
func joinAllProject(preds []JoinPred, rels map[string]*Relation, projection []Attr, par int) (*Relation, error) {
	order := joinOrder(preds, rels)
	if len(order) == 0 {
		return nil, fmt.Errorf("engine: join of no relations")
	}
	t := newTuples(rels[order[0]])
	inSet := map[string]bool{order[0]: true}
	for _, next := range order[1:] {
		nrel := rels[next]
		lCols, rCols, err := stepKeys(t.cols, inSet, next, nrel, preds)
		if err != nil {
			return nil, err
		}
		t.join(nrel, lCols, rCols, par)
		inSet[next] = true
	}
	var cols []int
	if projection == nil {
		for i := range t.cols {
			cols = append(cols, i)
		}
	}
	joined := &Relation{Cols: t.cols}
	for _, a := range projection {
		idx, err := joined.ColIndex(a.Rel, a.Col)
		if err != nil {
			return nil, err
		}
		cols = append(cols, idx)
	}
	return t.materialize(cols, par), nil
}

// tuples is a late-materialized join result: row i joins
// rels[k].Rows[pos[i*len(rels)+k]] across every input k, and its schema is
// the inputs' columns concatenated in join order, as JoinAll's is.
type tuples struct {
	rels []*Relation
	cols []ColRef
	at   []colAt // for each schema column, where its values live
	pos  []int32
	n    int
}

// colAt locates a schema column: column col of input rel.
type colAt struct{ rel, col int }

func newTuples(seed *Relation) *tuples {
	t := &tuples{n: len(seed.Rows), pos: make([]int32, len(seed.Rows))}
	for i := range t.pos {
		t.pos[i] = int32(i)
	}
	t.addInput(seed)
	return t
}

func (t *tuples) addInput(rel *Relation) {
	k := len(t.rels)
	t.rels = append(t.rels, rel)
	t.cols = concatCols(t.cols, rel.Cols)
	for c := range rel.Cols {
		t.at = append(t.at, colAt{rel: k, col: c})
	}
}

// value returns schema column c of tuple i.
func (t *tuples) value(i, c int) types.Value {
	a := t.at[c]
	return t.rels[a.rel].Rows[t.pos[i*len(t.rels)+a.rel]][a.col]
}

// keyOf hashes tuple i's key columns exactly as Row.HashKey hashes the
// materialized row; ok is false when a key column is NULL.
func (t *tuples) keyOf(i int, cols []int) (h uint64, ok bool) {
	h = types.FNVOffset64
	for _, c := range cols {
		v := t.value(i, c)
		if v.IsNull() {
			return 0, false
		}
		h = v.HashFNV(h)
	}
	return h, true
}

// join replaces t by t ⋈ r on the key columns lCols (schema positions in t)
// and rCols (in r), with hashJoinInner's semantics and order: no keys is a
// Cartesian product; otherwise the build is r unless r has more rows than t,
// and the output lists probe rows in order, each with its matching build rows
// in ascending position. Keys containing NULL never match. The probe runs in
// parallel chunks merged in input order.
func (t *tuples) join(r *Relation, lCols, rCols []int, par int) {
	w := len(t.rels)
	emit := func(out []int32, i, j int) []int32 {
		out = append(out, t.pos[i*w:(i+1)*w]...)
		return append(out, int32(j))
	}
	var pos []int32
	switch {
	case len(lCols) == 0:
		pos = parallel.Map(t.n, par, func(lo, hi int) []int32 {
			out := make([]int32, 0, (hi-lo)*len(r.Rows)*(w+1))
			for i := lo; i < hi; i++ {
				for j := range r.Rows {
					out = emit(out, i, j)
				}
			}
			return out
		})
	case len(r.Rows) > t.n: // build on t, probe with r
		idx := buildChains(t.n, func(i int) (uint64, bool) { return t.keyOf(i, lCols) })
		pos = parallel.Map(len(r.Rows), par, func(lo, hi int) []int32 {
			out := make([]int32, 0, (hi-lo)*(w+1))
			for j := lo; j < hi; j++ {
				rr := r.Rows[j]
				if hasNull(rr, rCols) {
					continue
				}
				idx.each(rr.HashKey(rCols), func(i int) {
					if t.keysMatch(i, lCols, rr, rCols) {
						out = emit(out, i, j)
					}
				})
			}
			return out
		})
	default: // build on r, probe with t
		idx := buildChains(len(r.Rows), func(j int) (uint64, bool) {
			if hasNull(r.Rows[j], rCols) {
				return 0, false
			}
			return r.Rows[j].HashKey(rCols), true
		})
		pos = parallel.Map(t.n, par, func(lo, hi int) []int32 {
			out := make([]int32, 0, (hi-lo)*(w+1))
			for i := lo; i < hi; i++ {
				h, ok := t.keyOf(i, lCols)
				if !ok {
					continue
				}
				idx.each(h, func(j int) {
					if t.keysMatch(i, lCols, r.Rows[j], rCols) {
						out = emit(out, i, j)
					}
				})
			}
			return out
		})
	}
	t.addInput(r)
	t.pos = pos
	t.n = len(pos) / (w + 1)
}

// keysMatch reports whether tuple i and row rr agree on their key columns
// under types.Equal.
func (t *tuples) keysMatch(i int, lCols []int, rr types.Row, rCols []int) bool {
	for k, c := range lCols {
		if !types.Equal(t.value(i, c), rr[rCols[k]]) {
			return false
		}
	}
	return true
}

// materialize builds the result rows from schema columns cols, one value
// block for all of them.
func (t *tuples) materialize(cols []int, par int) *Relation {
	out := &Relation{Cols: make([]ColRef, len(cols))}
	for i, c := range cols {
		out.Cols[i] = t.cols[c]
	}
	out.Rows = types.MakeRows(t.n, len(cols))
	parallel.For(t.n, par, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := out.Rows[i]
			for k, c := range cols {
				row[k] = t.value(i, c)
			}
		}
	})
	return out
}

// chains is a build-side join index without per-key allocation: the rows
// whose key hashes share a slot form a chain through next, in ascending row
// order, and a probe filters a chain by the stored full hash.
type chains struct {
	head  []int32 // slot -> first row + 1; 0 ends a chain
	next  []int32 // row -> next row + 1 in the same slot
	hash  []uint64
	shift uint
}

// buildChains indexes rows 0..n-1 by keyOf, skipping rows whose ok is false.
func buildChains(n int, keyOf func(j int) (uint64, bool)) *chains {
	bits := uint(1)
	for 1<<bits < n {
		bits++
	}
	c := &chains{
		head:  make([]int32, 1<<bits),
		next:  make([]int32, n),
		hash:  make([]uint64, n),
		shift: 64 - bits,
	}
	for j := n - 1; j >= 0; j-- { // prepend in reverse: chains ascend
		h, ok := keyOf(j)
		if !ok {
			continue
		}
		s := c.slot(h)
		c.hash[j], c.next[j], c.head[s] = h, c.head[s], int32(j+1)
	}
	return c
}

func (c *chains) slot(h uint64) int { return int((h * 0x9e3779b97f4a7c15) >> c.shift) }

// each calls yield for every indexed row whose key hash is h, ascending.
func (c *chains) each(h uint64, yield func(j int)) {
	for p := c.head[c.slot(h)]; p != 0; p = c.next[p-1] {
		if c.hash[p-1] == h {
			yield(int(p - 1))
		}
	}
}
