package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"resultdb/internal/types"
)

// joinProjectOracle is the materializing reference for JoinAllProject:
// JoinAll followed by Project.
func joinProjectOracle(preds []JoinPred, rels map[string]*Relation, projection []Attr) (*Relation, error) {
	joined, err := JoinAll(preds, rels)
	if err != nil || projection == nil {
		return joined, err
	}
	cols := make([]int, len(projection))
	for i, a := range projection {
		idx, err := joined.ColIndex(a.Rel, a.Col)
		if err != nil {
			return nil, err
		}
		cols[i] = idx
	}
	return joined.Project(cols), nil
}

// sameValue is exact equality: same kind and, for numbers, same bits.
func sameValue(a, b types.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == types.KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return types.Compare(a, b) == 0
}

// checkJoinProject requires JoinAllProject at degrees 1, 2 and 4 to return
// exactly the oracle's schema, rows and row order, or exactly its error.
func checkJoinProject(t *testing.T, name string, preds []JoinPred, rels map[string]*Relation, projection []Attr) *Relation {
	t.Helper()
	want, wantErr := joinProjectOracle(preds, rels, projection)
	for _, par := range []int{1, 2, 4} {
		got, err := joinAllProject(preds, rels, projection, par)
		if wantErr != nil || err != nil {
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s par=%d: error %v, want %v", name, par, err, wantErr)
			}
			continue
		}
		if fmt.Sprint(got.Cols) != fmt.Sprint(want.Cols) {
			t.Fatalf("%s par=%d: columns %v, want %v", name, par, got.Cols, want.Cols)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s par=%d: %d rows, want %d", name, par, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if len(got.Rows[i]) != len(want.Rows[i]) {
				t.Fatalf("%s par=%d: row %d is %v, want %v", name, par, i, got.Rows[i], want.Rows[i])
			}
			for c := range got.Rows[i] {
				if !sameValue(got.Rows[i][c], want.Rows[i][c]) {
					t.Fatalf("%s par=%d: row %d is %v, want %v", name, par, i, got.Rows[i], want.Rows[i])
				}
			}
		}
	}
	return want
}

func rel(alias string, cols []string, rows ...types.Row) *Relation {
	r := &Relation{Rows: rows}
	for _, c := range cols {
		r.Cols = append(r.Cols, ColRef{Rel: alias, Name: c, Kind: types.KindInt})
	}
	return r
}

func ints(vs ...int64) types.Row {
	r := make(types.Row, len(vs))
	for i, v := range vs {
		r[i] = types.NewInt(v)
	}
	return r
}

// TestJoinAllProjectCompositeAndNullKeys: a cycle whose closing step joins on
// a composite key, NULL join keys on either side, and numeric keys of mixed
// kinds (INTEGER 1 against DOUBLE 1.0 and -0.0).
func TestJoinAllProjectCompositeAndNullKeys(t *testing.T) {
	null := types.Null()
	a := rel("a", []string{"x", "y"}, ints(1, 1), ints(1, 2), types.Row{null, types.NewInt(2)}, ints(2, 2), ints(0, 3))
	b := rel("b", []string{"x", "z"}, ints(1, 7), types.Row{types.NewFloat(1.0), types.NewInt(8)},
		types.Row{types.NewInt(2), null}, ints(2, 9), types.Row{types.NewFloat(math.Copysign(0, -1)), types.NewInt(5)},
		ints(0, 6))
	c := rel("c", []string{"y", "z", "w"}, ints(1, 7, 100), ints(2, 9, 200), ints(2, 8, 300), types.Row{null, types.NewInt(7), types.NewInt(400)},
		ints(1, 8, 500), ints(3, 6, 600))
	rels := map[string]*Relation{"a": a, "b": b, "c": c}
	preds := []JoinPred{
		{LeftRel: "a", LeftCol: "x", RightRel: "b", RightCol: "x"},
		{LeftRel: "b", LeftCol: "z", RightRel: "c", RightCol: "z"},
		{LeftRel: "c", LeftCol: "y", RightRel: "a", RightCol: "y"},
	}
	want := checkJoinProject(t, "cycle", preds, rels, nil)
	if len(want.Rows) == 0 {
		t.Fatal("test setup: the cycle join is empty")
	}
	checkJoinProject(t, "cycle-projected", preds, rels, []Attr{{Rel: "c", Col: "w"}, {Rel: "a", Col: "x"}, {Rel: "b", Col: "x"}})

	// Two predicates between the same pair: a two-column key from the start.
	pair := []JoinPred{
		{LeftRel: "a", LeftCol: "x", RightRel: "c", RightCol: "y"},
		{LeftRel: "a", LeftCol: "y", RightRel: "c", RightCol: "y"},
	}
	checkJoinProject(t, "composite", pair, map[string]*Relation{"a": a, "c": c}, nil)
}

// TestJoinAllProjectCrossProduct: a disconnected join graph takes a
// Cartesian step, with and without keys elsewhere.
func TestJoinAllProjectCrossProduct(t *testing.T) {
	a := rel("a", []string{"x"}, ints(1), ints(2), ints(3))
	b := rel("b", []string{"x", "v"}, ints(1, 10), ints(1, 11), ints(3, 12), ints(4, 13))
	d := rel("d", []string{"u"}, ints(7), ints(8))
	e := rel("e", []string{"u"})
	rels := map[string]*Relation{"a": a, "b": b, "d": d}
	preds := []JoinPred{{LeftRel: "a", LeftCol: "x", RightRel: "b", RightCol: "x"}}
	checkJoinProject(t, "cross", preds, rels, nil)
	checkJoinProject(t, "cross-projected", preds, rels, []Attr{{Rel: "d", Col: "u"}, {Rel: "b", Col: "v"}})
	checkJoinProject(t, "cross-only", nil, map[string]*Relation{"a": a, "d": d}, nil)
	checkJoinProject(t, "cross-empty", nil, map[string]*Relation{"a": a, "e": e}, []Attr{{Rel: "a", Col: "x"}})
	checkJoinProject(t, "single", nil, map[string]*Relation{"b": b}, []Attr{{Rel: "b", Col: "v"}})
}

// TestJoinAllProjectErrors: an ambiguous or unknown projection and an
// unknown join column fail with JoinAll + Project's errors.
func TestJoinAllProjectErrors(t *testing.T) {
	a := rel("a", []string{"x"}, ints(1), ints(2))
	b := rel("b", []string{"x"}, ints(2), ints(3))
	rels := map[string]*Relation{"a": a, "b": b}
	preds := []JoinPred{{LeftRel: "a", LeftCol: "x", RightRel: "b", RightCol: "x"}}
	for name, c := range map[string]struct {
		preds []JoinPred
		proj  []Attr
	}{
		"ambiguous":    {preds, []Attr{{Col: "x"}}},
		"unknown-proj": {preds, []Attr{{Rel: "a", Col: "nope"}}},
		"unknown-pred": {[]JoinPred{{LeftRel: "a", LeftCol: "nope", RightRel: "b", RightCol: "x"}}, nil},
	} {
		if _, err := JoinAllProject(c.preds, rels, c.proj); err == nil {
			t.Fatalf("%s: no error", name)
		}
		checkJoinProject(t, name, c.preds, rels, c.proj)
	}
}

// TestJoinAllProjectLarge runs chains big enough to split into parallel
// chunks, with the build side on either input: the intermediate result
// outgrows the next relation, and a later relation outgrows it.
func TestJoinAllProjectLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	rels := map[string]*Relation{
		"a": bigRelation(rng, "a", 2500, 601),
		"b": bigRelation(rng, "b", 2000, 601),
		"c": bigRelation(rng, "c", 1500, 601),
		"d": bigRelation(rng, "d", 9000, 40),
	}
	preds := []JoinPred{
		{LeftRel: "a", LeftCol: "key", RightRel: "b", RightCol: "key"},
		{LeftRel: "b", LeftCol: "key", RightRel: "c", RightCol: "key"},
		{LeftRel: "c", LeftCol: "id", RightRel: "d", RightCol: "key"},
	}
	want := checkJoinProject(t, "chain", preds, rels, []Attr{{Rel: "d", Col: "payload"}, {Rel: "a", Col: "id"}})
	if len(want.Rows) < 2*2048 {
		t.Fatalf("test setup: only %d output rows", len(want.Rows))
	}
	checkJoinProject(t, "chain-all", preds, rels, nil)
}
