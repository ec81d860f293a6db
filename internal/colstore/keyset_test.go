package colstore

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"resultdb/internal/types"
)

// checkKeySet compares BuildKeySet(build) against the row-path types.KeySet
// built from buildRows: same distinct-key count, and the same membership
// answer for every row of probe from Contains and from Filter, the latter
// over two morsels and, for a view probe, under a selection vector too.
func checkKeySet(t *testing.T, name string, build Key, buildRows []types.Row, buildCols []int,
	probe Key, probeRows []types.Row, probeCols []int) *KeySet {
	t.Helper()
	ref := types.NewKeySet()
	for _, r := range buildRows {
		ref.AddKey(r, buildCols)
	}
	s := BuildKeySet(build)
	if s.Len() != ref.Len() {
		t.Fatalf("%s: Len = %d, want %d", name, s.Len(), ref.Len())
	}
	var want []int32
	for j, r := range probeRows {
		got, in := s.Contains(probe, j), ref.ContainsKey(r, probeCols)
		if got != in {
			t.Fatalf("%s: Contains(probe %d %v) = %v, want %v", name, j, r, got, in)
		}
		if in {
			want = append(want, int32(j))
		}
	}
	mid := len(probeRows) / 2
	if got := s.Filter(probe, mid, len(probeRows), s.Filter(probe, 0, mid, nil)); !slices.Equal(got, want) {
		t.Fatalf("%s: Filter = %v, want %v", name, got, want)
	}
	if probe.view == nil {
		return s
	}
	var keep, wantSel []int32
	for j := 0; j < len(probeRows); j += 2 {
		if ref.ContainsKey(probeRows[j], probeCols) {
			wantSel = append(wantSel, int32(len(keep)))
		}
		keep = append(keep, int32(j))
	}
	sel := ViewKey(probe.view.Narrow(keep), probe.cols)
	if got := s.Filter(sel, 0, len(keep), nil); !slices.Equal(got, wantSel) {
		t.Fatalf("%s: Filter under a selection vector = %v, want %v", name, got, wantSel)
	}
	var got []int32
	for i := range keep {
		if s.Contains(sel, i) {
			got = append(got, int32(i))
		}
	}
	if !slices.Equal(got, wantSel) {
		t.Fatalf("%s: Contains under a selection vector = %v, want %v", name, got, wantSel)
	}
	return s
}

func viewKey(kinds []types.Kind, rows []types.Row, cols []int) Key {
	return ViewKey(&View{Frame: NewFrame(kinds, rows)}, cols)
}

func oneCol(vs ...types.Value) []types.Row {
	rows := make([]types.Row, len(vs))
	for i, v := range vs {
		rows[i] = types.Row{v}
	}
	return rows
}

// TestKeySetIntBoundary: at ±2^53 float64 rounding merges neighbouring
// INTEGERs, and types.Equal (a float compare) treats them as one key; the
// float-bit table must agree.
func TestKeySetIntBoundary(t *testing.T) {
	const p53 = int64(1) << 53
	ints := []int64{p53, p53 + 1, p53 + 2, p53 - 1, -p53, -p53 - 1, -p53 + 1, 0, 1, -1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1}
	var vals []types.Value
	for _, v := range ints {
		vals = append(vals, types.NewInt(v))
	}
	rows := oneCol(vals...)
	kinds := []types.Kind{types.KindInt}
	s := checkKeySet(t, "int-boundary", viewKey(kinds, rows, []int{0}), rows, []int{0},
		RowsKey(rows, []int{0}), rows, []int{0})
	if s.ints == nil || s.bits != nil {
		t.Fatal("a single INTEGER view key too sparse for a bitmap must use the float-bit encoding")
	}
	probe := oneCol(types.NewInt(p53 + 1))
	build := oneCol(types.NewInt(p53))
	if !BuildKeySet(viewKey(kinds, build, []int{0})).Contains(viewKey(kinds, probe, []int{0}), 0) {
		t.Fatal("2^53+1 must match 2^53, as under types.Equal")
	}
}

// TestKeySetDense covers the dense bitmap encoding's admission rule (span
// and magnitude limits, NULLs not counted) and its probe edges: keys just
// outside [lo, hi], INTEGERs that wrap the offset, and DOUBLE probes that
// must match only when they are the exact integer.
func TestKeySetDense(t *testing.T) {
	const p52 = int64(1) << 52
	ints := func(vs ...int64) []types.Row {
		rows := make([]types.Row, len(vs))
		for i, v := range vs {
			rows[i] = types.Row{types.NewInt(v)}
		}
		return rows
	}
	null := types.Row{types.Null()}
	kinds := []types.Kind{types.KindInt}
	cols := []int{0}
	for _, c := range []struct {
		name  string
		build []types.Row
		dense bool
	}{
		{"at-span-limit", ints(0, 64*2+63), true},
		{"past-span-limit", ints(0, 64*2+64), false},
		{"nulls-not-counted", append(ints(5, 5+64*2+63), null, null), true},
		{"nulls-past-limit", append(ints(5, 5+64*2+64), null, null, null), false},
		{"max-magnitude", ints(p52-1, p52-2), true},
		{"min-magnitude", ints(-p52+1, -p52+2, -p52+1), true},
		{"past-max-magnitude", ints(p52, p52-1), false},
		{"past-min-magnitude", ints(-p52, -p52+1), false},
		{"small", ints(3, 1, 2, 3, 1, 0), true},
		{"all-null", []types.Row{null, null}, false},
	} {
		var lo, hi int64
		first := true
		for _, r := range c.build {
			if r[0].IsNull() {
				continue
			}
			x := r[0].Int()
			if first || x < lo {
				lo = x
			}
			if first || x > hi {
				hi = x
			}
			first = false
		}
		probe := append(ints(lo-1, lo, lo+1, hi-1, hi, hi+1, math.MaxInt64, math.MinInt64,
			p52-1, p52, -p52+1, -p52, 1<<53, 1<<53+1), null)
		for _, f := range []float64{float64(lo), float64(hi), float64(hi + 1), float64(lo) - 0.5,
			1.0, 1.5, 0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), float64(p52), float64(1 << 53)} {
			probe = append(probe, types.Row{types.NewFloat(f)})
		}
		bk := viewKey(kinds, c.build, cols)
		s := checkKeySet(t, c.name, bk, c.build, cols, RowsKey(probe, cols), probe, cols)
		if got := s.bits != nil; got != c.dense {
			t.Fatalf("%s: dense = %v, want %v", c.name, got, c.dense)
		}
		checkKeySet(t, c.name+"/int-view", bk, c.build, cols, viewKey(kinds, probe[:15], cols), probe[:15], cols)
		checkKeySet(t, c.name+"/double-view", bk, c.build, cols,
			viewKey([]types.Kind{types.KindFloat}, probe[14:], cols), probe[14:], cols)
	}
	// The DOUBLE probes against {0, 1, 2}: exact integers match, -0.0 does not.
	build := ints(0, 1, 2)
	probe := oneCol(types.NewFloat(1.0), types.NewFloat(1.5), types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)), types.NewFloat(2), types.Null())
	s := BuildKeySet(viewKey(kinds, build, cols))
	if s.bits == nil {
		t.Fatal("{0, 1, 2} must use the dense encoding")
	}
	for j, w := range []bool{true, false, true, false, false, false, false, true, false} {
		if got := s.Contains(RowsKey(probe, cols), j); got != w {
			t.Fatalf("probe %v: Contains = %v, want %v", probe[j][0], got, w)
		}
	}
}

// TestKeySetIntAgainstDouble: an INTEGER view build probed by a row-major
// DOUBLE key matches by numeric value, except -0.0, which the row path never
// matches against 0 because the two hash differently.
func TestKeySetIntAgainstDouble(t *testing.T) {
	build := oneCol(types.NewInt(0), types.NewInt(1), types.NewInt(-7), types.NewInt(1<<53))
	probe := oneCol(types.NewFloat(1.0), types.NewFloat(0.0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(-7.0), types.NewFloat(1.5), types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)),
		types.NewFloat(1<<53+1), types.NewText("1"), types.NewBool(true), types.Null(), types.NewInt(1))
	bk := viewKey([]types.Kind{types.KindInt}, build, []int{0})
	s := checkKeySet(t, "int-vs-double", bk, build, []int{0}, RowsKey(probe, []int{0}), probe, []int{0})
	want := []bool{true, true, false, true, false, false, false, true, false, false, false, true}
	for j, w := range want {
		if got := s.Contains(RowsKey(probe, []int{0}), j); got != w {
			t.Fatalf("probe %v: Contains = %v, want %v", probe[j][0], got, w)
		}
	}
	// A typed DOUBLE view probe takes the same path.
	checkKeySet(t, "int-vs-double-view", bk, build, []int{0},
		viewKey([]types.Kind{types.KindFloat}, probe[:8], []int{0}), probe[:8], []int{0})
}

// TestKeySetNullsDuplicatesEmpty covers NULL build and probe keys, repeated
// keys and an empty build, in both slot encodings.
func TestKeySetNullsDuplicatesEmpty(t *testing.T) {
	ints := oneCol(types.NewInt(3), types.Null(), types.NewInt(3), types.NewInt(4), types.Null(), types.NewInt(4), types.NewInt(3))
	texts := oneCol(types.NewText("a"), types.Null(), types.NewText("a"), types.NewText("b"), types.Null(), types.NewText("b"))
	for _, c := range []struct {
		name string
		kind types.Kind
		rows []types.Row
		n    int
	}{
		{"int", types.KindInt, ints, 2},
		{"text", types.KindText, texts, 2},
		{"int-empty", types.KindInt, nil, 0},
		{"text-empty", types.KindText, nil, 0},
	} {
		kinds := []types.Kind{c.kind}
		probe := append(append([]types.Row{}, ints...), texts...)
		for _, bk := range []Key{viewKey(kinds, c.rows, []int{0}), RowsKey(c.rows, []int{0})} {
			s := checkKeySet(t, c.name, bk, c.rows, []int{0}, RowsKey(probe, []int{0}), probe, []int{0})
			if s.Len() != c.n {
				t.Fatalf("%s: Len = %d, want %d", c.name, s.Len(), c.n)
			}
			for j, r := range probe {
				if r[0].IsNull() && s.Contains(RowsKey(probe, []int{0}), j) {
					t.Fatalf("%s: NULL probe key matched", c.name)
				}
			}
		}
	}
}

// TestKeySetTextAndComposite covers dictionary TEXT keys and the composite
// keys of a cycle edge (two key columns of mixed kinds, in either column
// order on the probe side).
func TestKeySetTextAndComposite(t *testing.T) {
	kinds := []types.Kind{types.KindText, types.KindInt, types.KindFloat}
	rng := rand.New(rand.NewSource(21))
	build := randomTypedRows(rng, kinds, 500, 0.1, 6)
	probe := randomTypedRows(rng, kinds, 500, 0.1, 6)
	for _, cols := range [][]int{{0}, {0, 1}, {1, 0}, {1, 2}, {2, 0, 1}} {
		for _, bk := range []Key{viewKey(kinds, build, cols), RowsKey(build, cols)} {
			for _, p := range []struct {
				key  Key
				rows []types.Row
			}{
				{viewKey(kinds, probe, cols), probe},
				{RowsKey(probe, cols), probe},
				{viewKey(kinds, build, cols), build},
			} {
				s := checkKeySet(t, "composite", bk, build, cols, p.key, p.rows, cols)
				if s.ints != nil && len(cols) > 1 {
					t.Fatal("composite keys must use the general encoding")
				}
			}
		}
	}
}

// FuzzKeySet decodes the input into a build and a probe column of NULL,
// INTEGER and DOUBLE values and checks both slot encodings (an all-INTEGER
// build gets the float-bit table) against the row-path types.KeySet.
func FuzzKeySet(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 0, 0, 0, 0x20, 0, 1, 1, 0, 0, 0, 0, 0, 0x20, 0})
	f.Add([]byte{1, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		split := int(data[0])
		var vals []types.Value
		for b := data[1:]; len(b) >= 9; b = b[9:] {
			w := binary.LittleEndian.Uint64(b[1:9])
			switch b[0] % 4 {
			case 0:
				vals = append(vals, types.Null())
			case 1:
				vals = append(vals, types.NewInt(int64(w)))
			case 2:
				vals = append(vals, types.NewFloat(math.Float64frombits(w)))
			default:
				vals = append(vals, types.NewInt(int64(int8(w))))
			}
		}
		if split > len(vals) {
			split = len(vals)
		}
		build, probe := oneCol(vals[:split]...), oneCol(vals[split:]...)
		cols := []int{0}
		for _, kind := range []types.Kind{types.KindInt, types.KindFloat} {
			bk := viewKey([]types.Kind{kind}, build, cols)
			for _, pk := range []Key{RowsKey(probe, cols), viewKey([]types.Kind{kind}, probe, cols)} {
				checkKeySet(t, "fuzz-view", bk, build, cols, pk, probe, cols)
			}
		}
		checkKeySet(t, "fuzz-rows", RowsKey(build, cols), build, cols, RowsKey(probe, cols), probe, cols)
	})
}
