package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"resultdb/internal/types"
)

// TestSemiJoinVecParallelMatchesRowPath: the flat-key-set semi-join returns
// the row path's rows in the row path's order, and the same narrowed
// selection vector, at degrees 1 and 4, for INTEGER keys (the float-bit
// table, NULLs included), TEXT keys, a composite key, and a row-major build.
func TestSemiJoinVecParallelMatchesRowPath(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	withNulls := func(rel *Relation) *Relation {
		for i := range rel.Rows {
			if rng.Intn(10) == 0 {
				rel.Rows[i][1] = types.Null()
			}
		}
		return rel
	}
	l := Columnarize(withNulls(bigRelation(rng, "l", 6000, 3000)), 1)
	r := Columnarize(withNulls(bigRelation(rng, "r", 2500, 3000)), 1)
	rowMajor := &Relation{Cols: r.Cols, Rows: r.Rows}
	for _, c := range []struct {
		name         string
		build        *Relation
		lCols, rCols []int
	}{
		{"int", r, []int{1}, []int{1}},
		{"int-vs-id", r, []int{1}, []int{0}},
		{"text", r, []int{2}, []int{2}},
		{"composite", r, []int{1, 2}, []int{1, 2}},
		{"row-major-build", rowMajor, []int{1}, []int{1}},
	} {
		want := SemiJoinSpan(l, c.lCols, c.build, c.rCols, 1, nil)
		if len(want.Rows) == 0 || len(want.Rows) == len(l.Rows) {
			t.Fatalf("%s: test setup: %d of %d rows kept", c.name, len(want.Rows), len(l.Rows))
		}
		var sel []int32
		for _, par := range []int{1, 4} {
			got := SemiJoinVec(l, c.lCols, c.build, c.rCols, par)
			identicalRows(t, fmt.Sprintf("%s par=%d", c.name, par), got, want)
			if got.Vec == nil || got.Vec.Len() != len(got.Rows) {
				t.Fatalf("%s par=%d: result view does not cover the rows", c.name, par)
			}
			if sel == nil {
				sel = got.Vec.Sel
			} else if fmt.Sprint(got.Vec.Sel) != fmt.Sprint(sel) {
				t.Fatalf("%s par=%d: selection vector differs from par=1", c.name, par)
			}
		}
	}
}
