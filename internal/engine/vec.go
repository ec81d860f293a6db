package engine

// Vectorized execution: the engine side of internal/colstore.
//
// The vectorized path is engaged per-relation, by data: a scan run with
// Executor.Vectorized attaches the table's columnar image (a colstore.View
// aligned with the materialized rows) to the Relation it produces, and every
// vectorized operator below consumes the view when present and falls back to
// row-major keys when not. Operators therefore compose freely across the two
// representations — a columnar base table semi-joins against a folded
// (row-major) intermediate without conversion, because both sides hash with
// the same inlined FNV-1a (types.Value.HashFNV == colstore.Column.HashFNV).
//
// Every function in this file is bit-identical to its row-path counterpart:
// same rows, same order, same trace cardinalities, at any parallelism degree.
// The only observable difference is the `vectorized` annotation on trace
// spans (excluded from trace.CountsFingerprint).
//
// Scan filters are compiled into colstore kernels under a prefix rule: the
// longest prefix of the pushed-down conjuncts that maps onto typed kernels
// runs columnar (dictionary-mask text predicates, typed numeric comparisons,
// IS NULL tests); the remaining conjuncts evaluate row-at-a-time over the
// survivors, exactly as the row path's bound expression would. All kernels
// are error-free, so the split cannot reorder errors, with one documented
// exception: when an earlier conjunct evaluates to NULL (not FALSE) for a
// row, the row path still evaluates the later conjuncts (and would surface
// their runtime errors, e.g. LIKE on a non-text value) while the kernel path
// drops the row without touching them. The engine's test suites contain no
// such query; SQL implementations differ on this point anyway.

import (
	"sort"
	"time"

	"resultdb/internal/colstore"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// KeyFor returns the colstore key addressing rel's key columns: columnar via
// the attached view when present, row-major otherwise. Both forms hash
// identically, so mixed-side joins and Bloom filters are safe.
func KeyFor(rel *Relation, cols []int) colstore.Key {
	if rel.Vec != nil {
		return colstore.ViewKey(rel.Vec, cols)
	}
	return colstore.RowsKey(rel.Rows, cols)
}

// gatherRows materializes the rows a view selects, as pointer copies from the
// backing row slice (late materialization: no value is touched).
func gatherRows(src []types.Row, v *colstore.View) []types.Row {
	if v.Sel == nil {
		return src
	}
	out := make([]types.Row, len(v.Sel))
	for i, j := range v.Sel {
		out[i] = src[j]
	}
	return out
}

// baseRelationVec is the vectorized scan: filter the table's columnar image
// with compiled kernels (plus a row-wise residual for unsupported conjuncts)
// and gather the surviving rows. Bit-identical to baseRelation's row path.
func (e *Executor) baseRelationVec(t *storage.Table, r RelRef, filters []sqlparse.Expr) (*Relation, error) {
	f := t.Columns()
	rel := &Relation{Cols: make([]ColRef, len(t.Def.Columns))}
	for i, c := range t.Def.Columns {
		rel.Cols[i] = ColRef{Rel: r.Alias, Name: c.Name, Kind: c.Type}
	}
	var sp *trace.Span
	var t0 time.Time
	if e.Tracer.Enabled() {
		sp = e.Tracer.Span("scan", r.Table+" AS "+r.Alias)
		sp.Phase = "scan"
		sp.Detail = "true"
		if len(filters) > 0 {
			sp.Detail = sqlparse.AndAll(filters).SQL()
		}
		sp.RowsIn = len(t.Rows)
		sp.Par = parallel.Degree(e.Parallelism)
		sp.Morsels = parallel.Chunks(len(t.Rows), e.Parallelism)
		sp.Vec = true
		sp.Dict = f.DictEntries()
		t0 = time.Now()
	}
	view := &colstore.View{Frame: f}
	if len(filters) == 0 {
		rel.Rows = t.Rows
		rel.Vec = view
		if sp != nil {
			sp.RowsOut = len(rel.Rows)
			sp.DurNS = time.Since(t0).Nanoseconds()
			e.Tracer.AddRowsScanned(len(rel.Rows))
		}
		return rel, nil
	}
	kernels, residual := compileScanKernels(f, rel, filters)
	if len(kernels) > 0 {
		view = &colstore.View{Frame: f, Sel: colstore.RunKernels(f.Rows(), kernels, e.Parallelism)}
	}
	if len(residual) > 0 {
		b := &binder{rel: rel, sub: e.subRunner()}
		check, err := b.bind(sqlparse.AndAll(residual))
		if err != nil {
			return nil, err
		}
		keep, err := parallel.MapErr(view.Len(), e.Parallelism, func(lo, hi int) ([]int32, error) {
			out := make([]int32, 0, hi-lo)
			for j := lo; j < hi; j++ {
				v, err := check(t.Rows[view.Index(j)])
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					out = append(out, int32(j))
				}
			}
			return out, nil
		})
		if err != nil {
			return nil, err
		}
		view = view.Narrow(keep)
	}
	out := &Relation{Cols: rel.Cols, Vec: view}
	out.Rows = gatherRows(t.Rows, view)
	if sp != nil {
		sp.RowsOut = len(out.Rows)
		sp.DurNS = time.Since(t0).Nanoseconds()
		e.Tracer.AddRowsScanned(len(out.Rows))
		e.Tracer.AddRowsDropped(len(t.Rows) - len(out.Rows))
	}
	return out, nil
}

// compileScanKernels maps the longest kernelizable prefix of the pushed-down
// conjuncts onto colstore kernels; the rest is returned as the row-wise
// residual (in original order, so error behavior matches the row path — see
// the package comment's prefix rule).
func compileScanKernels(f *colstore.Frame, rel *Relation, filters []sqlparse.Expr) ([]colstore.Kernel, []sqlparse.Expr) {
	var kernels []colstore.Kernel
	for i, cond := range filters {
		k, ok := compileKernel(f, rel, cond)
		if !ok {
			return kernels, filters[i:]
		}
		kernels = append(kernels, k)
	}
	return kernels, nil
}

// litOf unwraps a literal expression.
func litOf(e sqlparse.Expr) (types.Value, bool) {
	if l, ok := e.(*sqlparse.Literal); ok {
		return l.Value, true
	}
	return types.Value{}, false
}

// colOf resolves a column reference against rel, returning its position.
func colOf(e sqlparse.Expr, rel *Relation) (int, bool) {
	cr, ok := e.(*sqlparse.ColumnRef)
	if !ok {
		return 0, false
	}
	idx, err := rel.ColIndex(cr.Table, cr.Column)
	if err != nil {
		return 0, false
	}
	return idx, true
}

// cmpOpOf maps a parser comparison operator to the kernel enum.
func cmpOpOf(op sqlparse.BinaryOp) (colstore.CmpOp, bool) {
	switch op {
	case sqlparse.OpEq:
		return colstore.CmpEq, true
	case sqlparse.OpNe:
		return colstore.CmpNe, true
	case sqlparse.OpLt:
		return colstore.CmpLt, true
	case sqlparse.OpLe:
		return colstore.CmpLe, true
	case sqlparse.OpGt:
		return colstore.CmpGt, true
	case sqlparse.OpGe:
		return colstore.CmpGe, true
	}
	return 0, false
}

// flipCmp mirrors an operator across the comparison (lit op col ≡ col op' lit).
func flipCmp(op colstore.CmpOp) colstore.CmpOp {
	switch op {
	case colstore.CmpLt:
		return colstore.CmpGt
	case colstore.CmpLe:
		return colstore.CmpGe
	case colstore.CmpGt:
		return colstore.CmpLt
	case colstore.CmpGe:
		return colstore.CmpLe
	}
	return op // Eq, Ne are symmetric
}

// sampleOf returns an arbitrary non-NULL value of the column's kind, used to
// evaluate cross-kind comparisons once (types.Compare orders distinct
// non-numeric kinds by kind tag, so the result is constant over the column).
func sampleOf(col colstore.Column) (types.Value, bool) {
	switch col.(type) {
	case *colstore.Int64Column:
		return types.NewInt(0), true
	case *colstore.Float64Column:
		return types.NewFloat(0), true
	case *colstore.BoolColumn:
		return types.NewBool(false), true
	case *colstore.TextColumn:
		return types.NewText(""), true
	}
	return types.Value{}, false
}

// constOrNonNull compiles a predicate whose outcome is the same for every
// non-NULL value of the column: keep all non-NULL rows or none.
func constOrNonNull(col colstore.Column, pass bool) colstore.Kernel {
	if pass {
		return colstore.NewNonNullKernel(col)
	}
	return colstore.NewConstKernel(false)
}

func numeric(v types.Value) bool {
	return v.Kind() == types.KindInt || v.Kind() == types.KindFloat
}

// compileKernel compiles one conjunct into a colstore kernel, or reports that
// it must stay in the row-wise residual. Supported shapes: column-vs-literal
// comparisons (either side order), BETWEEN with literal bounds, IN over a
// literal list, LIKE on a dictionary-encoded text column, IS [NOT] NULL.
// Every produced kernel reproduces the bound expression's three-valued
// semantics exactly (NULL never passes) and cannot raise a runtime error.
func compileKernel(f *colstore.Frame, rel *Relation, e sqlparse.Expr) (colstore.Kernel, bool) {
	switch x := e.(type) {
	case *sqlparse.Binary:
		op, ok := cmpOpOf(x.Op)
		if !ok {
			return nil, false
		}
		idx, lit := 0, types.Value{}
		if ci, cok := colOf(x.L, rel); cok {
			lv, lok := litOf(x.R)
			if !lok {
				return nil, false
			}
			idx, lit = ci, lv
		} else if ci, cok := colOf(x.R, rel); cok {
			lv, lok := litOf(x.L)
			if !lok {
				return nil, false
			}
			idx, lit, op = ci, lv, flipCmp(op)
		} else {
			return nil, false
		}
		if lit.IsNull() {
			return colstore.NewConstKernel(false), true // cmp with NULL is NULL
		}
		col := f.Col(idx)
		switch c := col.(type) {
		case *colstore.TextColumn:
			// One types.Compare per distinct string; rows are a code lookup.
			return colstore.NewDictKernel(c, c.Keep(func(s string) bool {
				return colstore.EvalCmp(op, types.Compare(types.NewText(s), lit))
			})), true
		case *colstore.Int64Column, *colstore.Float64Column:
			if numeric(lit) {
				k, ok := colstore.NewNumCmpKernel(col, op, lit.Float())
				return k, ok
			}
			sample, _ := sampleOf(col)
			return constOrNonNull(col, colstore.EvalCmp(op, types.Compare(sample, lit))), true
		case *colstore.BoolColumn:
			if lit.Kind() == types.KindBool {
				return colstore.NewBoolKernel(c,
					colstore.EvalCmp(op, types.Compare(types.NewBool(true), lit)),
					colstore.EvalCmp(op, types.Compare(types.NewBool(false), lit))), true
			}
			sample, _ := sampleOf(col)
			return constOrNonNull(col, colstore.EvalCmp(op, types.Compare(sample, lit))), true
		}
		return nil, false // AnyColumn: mixed kinds, stay row-wise

	case *sqlparse.Between:
		idx, ok := colOf(x.E, rel)
		if !ok {
			return nil, false
		}
		lo, lok := litOf(x.Lo)
		hi, hok := litOf(x.Hi)
		if !lok || !hok {
			return nil, false
		}
		if lo.IsNull() || hi.IsNull() {
			return colstore.NewConstKernel(false), true // any NULL operand → NULL
		}
		between := func(v types.Value) bool {
			in := types.Compare(v, lo) >= 0 && types.Compare(v, hi) <= 0
			return in != x.Not
		}
		col := f.Col(idx)
		switch c := col.(type) {
		case *colstore.TextColumn:
			return colstore.NewDictKernel(c, c.Keep(func(s string) bool {
				return between(types.NewText(s))
			})), true
		case *colstore.Int64Column, *colstore.Float64Column:
			if numeric(lo) && numeric(hi) {
				k, ok := colstore.NewNumBetweenKernel(col, lo.Float(), hi.Float(), x.Not)
				return k, ok
			}
			sample, _ := sampleOf(col)
			return constOrNonNull(col, between(sample)), true
		case *colstore.BoolColumn:
			return colstore.NewBoolKernel(c,
				between(types.NewBool(true)), between(types.NewBool(false))), true
		}
		return nil, false

	case *sqlparse.InList:
		idx, ok := colOf(x.E, rel)
		if !ok {
			return nil, false
		}
		lits := make([]types.Value, len(x.List))
		for i, it := range x.List {
			v, ok := litOf(it)
			if !ok {
				return nil, false
			}
			lits[i] = v
		}
		// inPass reproduces the bound InList for a non-NULL probe value:
		// match → !Not; no match with a NULL item → UNKNOWN (drop); else Not.
		inPass := func(v types.Value) bool {
			sawNull := false
			for _, it := range lits {
				if it.IsNull() {
					sawNull = true
					continue
				}
				if types.Compare(v, it) == 0 {
					return !x.Not
				}
			}
			if sawNull {
				return false
			}
			return x.Not
		}
		col := f.Col(idx)
		switch c := col.(type) {
		case *colstore.TextColumn:
			return colstore.NewDictKernel(c, c.Keep(func(s string) bool {
				return inPass(types.NewText(s))
			})), true
		case *colstore.Int64Column, *colstore.Float64Column:
			var items []float64
			sawNull := false
			for _, it := range lits {
				switch {
				case it.IsNull():
					sawNull = true
				case numeric(it):
					items = append(items, it.Float())
				}
				// Non-numeric items can never equal a numeric value
				// (types.Compare orders distinct kinds); omit them.
			}
			k, ok := colstore.NewNumInKernel(col, items, x.Not, sawNull)
			return k, ok
		case *colstore.BoolColumn:
			return colstore.NewBoolKernel(c,
				inPass(types.NewBool(true)), inPass(types.NewBool(false))), true
		}
		return nil, false

	case *sqlparse.Like:
		idx, ok := colOf(x.E, rel)
		if !ok {
			return nil, false
		}
		// Only a typed TEXT column is safe: the row path raises an error for
		// LIKE on non-text values, which a kernel must not swallow.
		c, ok := f.Col(idx).(*colstore.TextColumn)
		if !ok {
			return nil, false
		}
		match := compileLike(x.Pattern)
		return colstore.NewDictKernel(c, c.Keep(func(s string) bool {
			return match(s) != x.Not
		})), true

	case *sqlparse.IsNull:
		idx, ok := colOf(x.E, rel)
		if !ok {
			return nil, false
		}
		return colstore.NewIsNullKernel(f.Col(idx), x.Not), true
	}
	return nil, false
}

// SemiJoinVec is SemiJoinVecSpan without tracing.
func SemiJoinVec(l *Relation, lCols []int, r *Relation, rCols []int, par int) *Relation {
	return SemiJoinVecSpan(l, lCols, r, rCols, par, nil)
}

// SemiJoinVecSpan is the vectorized l ⋉ r: the build side's distinct keys go
// into a flat colstore.KeySet (no per-key allocation; a bitmap for dense
// INTEGER keys, float-bit INTEGER keys, dictionary-hash text keys), the batch
// probe emits a selection vector per morsel, and only the surviving rows are
// gathered. Either side may be columnar or row-major; the result carries l's
// view narrowed to the survivors when l was columnar. Bit-identical to
// SemiJoinSpan.
func SemiJoinVecSpan(l *Relation, lCols []int, r *Relation, rCols []int, par int, sp *trace.Span) *Relation {
	var t0 time.Time
	if sp != nil {
		sp.Vec = true
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(len(l.Rows), par)
		t0 = time.Now()
	}
	keys := colstore.BuildKeySet(KeyFor(r, rCols))
	if sp != nil {
		sp.BuildNS = time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	probe := KeyFor(l, lCols)
	out := l.Keep(parallel.Map(len(l.Rows), par, func(lo, hi int) []int32 {
		return keys.Filter(probe, lo, hi, make([]int32, 0, hi-lo))
	}))
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return out
}

// hashJoinVecInner is hashJoinInner running build and probe on colstore keys
// when at least one side is columnar (same side choice, same emit order, same
// two-phase parallel build). Cross joins and all-row-major inputs delegate to
// the row path unchanged. The joined output is row-major (Vec nil): its
// schema no longer matches either frame.
func hashJoinVecInner(l, r *Relation, lCols, rCols []int, par int, sp *trace.Span) *Relation {
	if len(lCols) == 0 || (l.Vec == nil && r.Vec == nil) {
		return hashJoinInner(l, r, lCols, rCols, par, sp)
	}
	out := &Relation{Cols: concatCols(l.Cols, r.Cols)}
	build, probe := r, l
	buildCols, probeCols := rCols, lCols
	if len(r.Rows) > len(l.Rows) {
		build, probe = l, r
		buildCols, probeCols = lCols, rCols
	}
	var t0 time.Time
	if sp != nil {
		sp.Vec = true
		sp.Par = parallel.Degree(par)
		sp.Morsels = parallel.Chunks(len(probe.Rows), par)
		t0 = time.Now()
	}
	ht := colstore.BuildHashTable(KeyFor(build, buildCols), par)
	if sp != nil {
		sp.BuildNS = time.Since(t0).Nanoseconds()
		t0 = time.Now()
	}
	pk := KeyFor(probe, probeCols)
	if probe == l {
		out.Rows = parallel.Map(len(probe.Rows), par, func(lo, hi int) []types.Row {
			rows := make([]types.Row, 0, hi-lo)
			for j := lo; j < hi; j++ {
				lr := probe.Rows[j]
				ht.Each(pk, j, func(pos int32) {
					rows = append(rows, concatRows(lr, build.Rows[pos]))
				})
			}
			return rows
		})
	} else {
		out.Rows = parallel.Map(len(probe.Rows), par, func(lo, hi int) []types.Row {
			rows := make([]types.Row, 0, hi-lo)
			for j := lo; j < hi; j++ {
				rr := probe.Rows[j]
				ht.Each(pk, j, func(pos int32) {
					rows = append(rows, concatRows(build.Rows[pos], rr))
				})
			}
			return rows
		})
	}
	if sp != nil {
		sp.ProbeNS = time.Since(t0).Nanoseconds()
	}
	return out
}

// HashJoinVecSpan is the exported vectorized hash join (used by internal/core
// when folding): vectorized when either input carries a columnar view, the
// plain row join otherwise. sp may be nil.
func HashJoinVecSpan(l, r *Relation, lCols, rCols []int, par int, sp *trace.Span) *Relation {
	return hashJoinVecInner(l, r, lCols, rCols, par, sp)
}

// Columnarize returns rel with a freshly built columnar image attached (a
// shallow copy; rows are shared). Columns whose values do not match their
// declared kind degrade to exact-value fallback vectors, so this is safe on
// any relation, including post-join intermediates. Used before repeated
// columnar consumption (Decompose's per-alias project+dedup).
func Columnarize(rel *Relation, par int) *Relation {
	kinds := make([]types.Kind, len(rel.Cols))
	for i, c := range rel.Cols {
		kinds[i] = c.Kind
	}
	f := colstore.NewFrameDegree(kinds, rel.Rows, par)
	return &Relation{Cols: rel.Cols, Rows: rel.Rows, Vec: &colstore.View{Frame: f}}
}

// ProjectDistinctPar projects r onto cols and removes duplicate rows —
// exactly ProjectPar(cols, par).DistinctPar(par), but when r carries a
// columnar view the dedup runs on column data (dictionary-hash keys, no
// materialization of dropped rows): survivors are found first, then only they
// are projected. First occurrence wins, output in input order, identical at
// any degree.
func (r *Relation) ProjectDistinctPar(cols []int, par int) *Relation {
	if r.Vec == nil {
		return r.ProjectPar(cols, par).DistinctPar(par)
	}
	out := &Relation{Cols: make([]ColRef, len(cols))}
	for i, c := range cols {
		out.Cols[i] = r.Cols[c]
	}
	key := colstore.ViewKey(r.Vec, cols)
	n := len(r.Rows)
	nc := parallel.Chunks(n, par)

	materialize := func(order []int32) {
		out.Rows = make([]types.Row, len(order))
		parallel.For(len(order), par, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out.Rows[i] = r.Rows[order[i]].Project(cols)
			}
		})
		// Keep the output columnar too: gather the surviving positions into
		// a frame aligned with out.Rows. Text columns share the source
		// dictionary (code copies only), which is what lets the columnar
		// wire encoder ship scan-time dictionaries without re-encoding.
		kinds := make([]types.Kind, len(out.Cols))
		for i, c := range out.Cols {
			kinds[i] = c.Kind
		}
		out.Vec = &colstore.View{Frame: colstore.GatherView(r.Vec, cols, kinds, order, par)}
	}

	if nc <= 1 {
		buckets := make(map[uint64][]int32, n)
		order := make([]int32, 0, n)
		for j := 0; j < n; j++ {
			h := key.Hash(j)
			dup := false
			for _, p := range buckets[h] {
				if colstore.KeysEqual(key, int(p), key, j) {
					dup = true
					break
				}
			}
			if !dup {
				buckets[h] = append(buckets[h], int32(j))
				order = append(order, int32(j))
			}
		}
		materialize(order)
		return out
	}

	// Parallel path: the same four phases as DistinctPar, on key hashes
	// instead of materialized rows.
	hs := make([]uint64, n)
	parallel.For(n, par, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			hs[j] = key.Hash(j)
		}
	})
	P := nc
	locals := make([][][]int32, nc)
	parallel.ForChunks(n, par, func(chunk, lo, hi int) {
		local := make([][]int32, P)
		for j := lo; j < hi; j++ {
			p := int(hs[j] % uint64(P))
			local[p] = append(local[p], int32(j))
		}
		locals[chunk] = local
	})
	survivors := make([][]int32, P)
	parallel.Each(P, par, func(p int) {
		seen := make(map[uint64][]int32)
		var keep []int32
		for c := 0; c < nc; c++ {
			for _, j := range locals[c][p] {
				h := hs[j]
				dup := false
				for _, q := range seen[h] {
					if colstore.KeysEqual(key, int(q), key, int(j)) {
						dup = true
						break
					}
				}
				if !dup {
					seen[h] = append(seen[h], j)
					keep = append(keep, j)
				}
			}
		}
		survivors[p] = keep
	})
	total := 0
	for _, s := range survivors {
		total += len(s)
	}
	order := make([]int32, 0, total)
	for _, s := range survivors {
		order = append(order, s...)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	materialize(order)
	return out
}
