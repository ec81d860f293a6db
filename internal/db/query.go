package db

import (
	"errors"
	"fmt"
	"strings"

	"resultdb/internal/core"
	"resultdb/internal/engine"
	"resultdb/internal/parallel"
	"resultdb/internal/sqlparse"
	"resultdb/internal/stats"
	"resultdb/internal/trace"
	"resultdb/internal/types"
)

// query runs a SELECT, the only SELECT dispatch: traced asks for the
// execution trace (EXPLAIN, QueryWithTrace) and a non-nil sink receives the
// result as a stream. It consults the semantic result cache when enabled:
//
//   - Untraced queries go through the full cache path (lookup, single-flight
//     collapse of identical concurrent misses, fill) in queryCached; a
//     cached result reaches the sink as a replay.
//   - Traced queries always execute — a trace without operator spans would
//     be useless — but probe the cache to annotate the plan with the
//     would-be outcome ("cache: hit" or "cache: miss" in the strippable
//     bracket section) and fill it, so EXPLAIN warms the cache for the
//     statement it explains.
//
// All cache traffic is keyed on the snapshot's table versions: an entry is
// served only when it embeds exactly the state this reader pinned, and a
// fill is admitted only when no writer published past the snapshot while
// the query ran (see queryCached).
func (d *Database) query(ec execCtx, sel *sqlparse.Select, traced bool, sink *streamSink) (*Result, *trace.Trace, error) {
	var tr *trace.Tracer
	if traced {
		tr = trace.New(sel.SQL())
		tr.SetParallelism(parallel.Degree(ec.opts.Parallelism))
		tr.SetSnapshot(ec.snap.Seq(), ec.snap.LSN())
	}
	var res *Result
	var err error
	switch {
	case !ec.opts.ResultCache:
		res, err = d.queryUncached(ec, sel, tr, sink)
	case !traced:
		if res, err = d.queryCached(ec, sel); err == nil {
			err = sink.replay(res)
		}
	default:
		key := cacheKey(ec, sel)
		if _, ok := d.resultCache.PeekAt(key, sqlparse.Tables(sel), ec.snap.st.versionOf); ok {
			tr.SetCacheStatus("hit")
		} else {
			tr.SetCacheStatus("miss")
		}
		if res, err = d.queryUncached(ec, sel, tr, sink); err == nil {
			d.resultCache.PutAt(key, res, cachedResultBytes(res), sqlparse.Tables(sel), ec.snap.st.versionOf)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return res, tr.Finish(), nil
}

// queryUncached always executes, bypassing the result cache, in the mode
// the statement's RESULTDB/PRESERVING flags select.
func (d *Database) queryUncached(ec execCtx, sel *sqlparse.Select, tr *trace.Tracer, sink *streamSink) (*Result, error) {
	if sel.ResultDB {
		mode := ModeRDB
		if sel.Preserving {
			mode = ModeRDBRP
		}
		return d.queryResultDBAt(ec, sel, mode, tr, sink)
	}
	return d.querySingleTableAt(ec, sel, tr, sink)
}

func (d *Database) querySingleTableAt(ec execCtx, sel *sqlparse.Select, tr *trace.Tracer, sink *streamSink) (*Result, error) {
	tr.SetMode("single-table")
	ex := d.executor(ec, tr)
	rel, err := ex.Select(sel)
	if err != nil {
		return nil, err
	}
	if err := sink.begin(StreamMeta{NumSets: 1}); err != nil {
		return nil, err
	}
	set := relToSet("result", rel, rel.ColumnNames())
	if sp := tr.Span("output", "result"); sp != nil {
		sp.Phase = "output"
		sp.RowsIn = len(rel.Rows)
		sp.RowsOut = len(set.Rows)
		sp.Bytes = set.WireSize()
		tr.AddRowsOut(len(set.Rows))
		tr.AddBytes(sp.Bytes)
	}
	if err := sink.emit(set); err != nil {
		return nil, err
	}
	return &Result{Sets: []*ResultSet{set}}, nil
}

func (d *Database) queryResultDBAt(ec execCtx, sel *sqlparse.Select, mode Mode, tr *trace.Tracer, sink *streamSink) (*Result, error) {
	if len(sel.OrderBy) > 0 || sel.Limit != nil {
		return nil, fmt.Errorf("db: RESULTDB does not support ORDER BY/LIMIT (which relation would they apply to?)")
	}
	if mode == ModeRDBRP {
		tr.SetMode("resultdb-preserving")
	} else {
		tr.SetMode("resultdb")
	}
	spec, err := engine.AnalyzeSPJ(stripResultDB(sel), ec.src)
	if err != nil {
		return nil, fmt.Errorf("db: RESULTDB requires a select-project-join query: %w", err)
	}
	outputs := spec.OutputRels()
	if mode == ModeRDBRP {
		outputs = relationshipRels(spec)
	}
	tr.SetOutputs(outputs)
	reduced, stats, err := d.reduceSpec(ec, sel, spec, outputs, tr, mode)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: stats}
	if stats != nil {
		tr.SetStats(stats.String())
	}
	if mode == ModeRDBRP {
		res.PostJoinPlan = buildPostJoinPlan(spec, outputs)
	}
	// The set count and the post-join plan are known before any output
	// relation is projected — this is what lets a streaming consumer write
	// the response header first and then ship each relation as it finishes.
	if err := sink.begin(StreamMeta{NumSets: len(outputs), Plan: res.PostJoinPlan, Stats: stats}); err != nil {
		return nil, err
	}
	for _, alias := range outputs {
		var attrs []string
		if mode == ModeRDBRP {
			attrs = core.RelationshipPreservingAttrs(spec, alias)
		} else {
			attrs = dedupAttrs(spec.ProjectionOf(alias))
		}
		rel := reduced[strings.ToLower(alias)]
		set, err := projectSet(alias, rel, attrs, ec.opts.Parallelism)
		if err != nil {
			return nil, err
		}
		if sp := tr.Span("output", alias); sp != nil {
			sp.Phase = "output"
			sp.RowsIn = len(rel.Rows)
			sp.RowsOut = len(set.Rows)
			sp.Bytes = set.WireSize()
			tr.AddRowsOut(len(set.Rows))
			tr.AddBytes(sp.Bytes)
		}
		if err := sink.emit(set); err != nil {
			return nil, err
		}
		res.Sets = append(res.Sets, set)
	}
	return res, nil
}

// relationshipRels lists the relations with non-empty A_i* (Definition 2.3):
// those contributing projected attributes or join attributes, in FROM order.
func relationshipRels(spec *engine.SPJSpec) []string {
	var out []string
	for _, r := range spec.Rels {
		if len(spec.ProjectionOf(r.Alias)) > 0 || len(spec.JoinAttrsOf(r.Alias)) > 0 {
			out = append(out, r.Alias)
		}
	}
	return out
}

// reduceSpec computes fully reduced base relations for the query's output
// relations, honoring the context's strategy. Queries the semi-join
// algorithm cannot handle (cross-relation residual predicates, disconnected
// join graphs) automatically use the Decompose strategy, which is always
// applicable.
func (d *Database) reduceSpec(ec execCtx, sel *sqlparse.Select, spec *engine.SPJSpec, outputs []string, tr *trace.Tracer, mode Mode) (map[string]*engine.Relation, *core.Stats, error) {
	ex := d.executor(ec, tr)
	strategy := ec.strategy
	if len(spec.Residual) > 0 {
		strategy = StrategyDecompose
		tr.Note("cross-relation residual predicates present; using Decompose strategy")
	}
	if strategy == StrategySemiJoin {
		tr.SetStrategy("semijoin")
		tr.Note("strategy: native semi-join reduction")
		rels, err := ex.BaseRelations(spec)
		if err != nil {
			return nil, nil, err
		}
		opts := ec.opts
		opts.Tracer = tr
		verdictKey := ""
		if opts.CostBased {
			switch {
			case tr.Enabled():
				// Traced runs always plan with statistics so the trace
				// shows the cost-based decisions; they bypass the verdict
				// cache in both directions.
				opts.TableStats = d.aliasStats(ec, spec)
			case d.planConfirmedHeuristic(ec.src, planKey(sel, mode), spec):
				// A prior cost-based run of this statement at these table
				// versions produced exactly the heuristic plan; skip the
				// statistics machinery and take that plan directly.
			default:
				verdictKey = planKey(sel, mode)
				opts.TableStats = d.aliasStats(ec, spec)
			}
		}
		reduced, stats, err := core.SemiJoinReduce(spec, rels, outputs, opts)
		if err == nil {
			if verdictKey != "" && stats != nil {
				d.recordPlanVerdict(ec.src, verdictKey, spec, stats.PlanDiverged)
			}
			return reduced, stats, nil
		}
		if !errors.Is(err, core.ErrDisconnected) {
			return nil, nil, err
		}
		// Cross product in the query: fall through to Decompose.
		tr.Note("join graph disconnected (cross product); falling back to Decompose strategy")
	}
	tr.SetStrategy("decompose")
	tr.Note("strategy: single-table plan + Decompose operator")
	joined, err := ex.RunSPJ(spec)
	if err != nil {
		return nil, nil, err
	}
	reduced, err := core.Decompose(joined, outputs, ec.opts.Parallelism, ec.opts.Vectorized, tr)
	if err != nil {
		return nil, nil, err
	}
	tr.Note(fmt.Sprintf("decompose into %d relations + dedup", len(outputs)))
	return reduced, nil, nil
}

// aliasStats maps each of the query's aliases (lower-cased) to its base
// table's cached statistics, for the cost-based reduction planner. Aliases
// over missing tables (materialized views dropped mid-flight, etc.) are
// simply absent; the estimator treats absent stats conservatively.
func (d *Database) aliasStats(ec execCtx, spec *engine.SPJSpec) map[string]*stats.Table {
	out := make(map[string]*stats.Table, len(spec.Rels))
	for _, r := range spec.Rels {
		t, err := ec.src.Table(r.Table)
		if err != nil {
			continue
		}
		out[strings.ToLower(r.Alias)] = d.statsCache.Of(t)
	}
	return out
}

// PostJoin reconstructs the single-table result from a previously computed
// relationship-preserving subdatabase result (Definition 2.3): it derives
// the post-join plan of sel over the returned sets and executes it. res
// must come from Session.QueryResultDB(sel, ModeRDBRP) of the same query.
func (d *Database) PostJoin(sel *sqlparse.Select, res *Result) (*ResultSet, error) {
	spec, err := engine.AnalyzeSPJ(stripResultDB(sel), d.Snapshot())
	if err != nil {
		return nil, err
	}
	outputs := make([]string, len(res.Sets))
	for i, set := range res.Sets {
		outputs[i] = set.Name
	}
	planned := *res
	planned.PostJoinPlan = buildPostJoinPlan(spec, outputs)
	return ExecutePostJoinPlan(&planned)
}

// stripResultDB returns sel with the ResultDB flag cleared (shallow copy),
// so the analyzer and single-table executor treat it as an ordinary query.
func stripResultDB(sel *sqlparse.Select) *sqlparse.Select {
	if !sel.ResultDB {
		return sel
	}
	clone := *sel
	clone.ResultDB = false
	return &clone
}

func dedupAttrs(attrs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range attrs {
		key := strings.ToLower(a)
		if !seen[key] {
			seen[key] = true
			out = append(out, a)
		}
	}
	return out
}

// projectSet projects a reduced full-width relation onto the chosen
// attributes and removes duplicates (set semantics of Definition 2.2). Both
// steps run at degree par (0 = auto, 1 = serial) with deterministic output.
func projectSet(alias string, rel *engine.Relation, attrs []string, par int) (*ResultSet, error) {
	cols := make([]int, len(attrs))
	for i, a := range attrs {
		idx, err := rel.ColIndex(alias, a)
		if err != nil {
			return nil, err
		}
		cols[i] = idx
	}
	// ProjectDistinctPar dedups on columnar key hashes when the reduced
	// relation still carries its scan's columnar view (vectorized path) and
	// is exactly ProjectPar+DistinctPar otherwise.
	projected := rel.ProjectDistinctPar(cols, par)
	return relToSet(alias, projected, attrs), nil
}

func relToSet(name string, rel *engine.Relation, columns []string) *ResultSet {
	set := &ResultSet{Name: name, Columns: columns, Rows: rel.Rows}
	// Carry the relation's columnar view when it is aligned with the rows
	// (same length, one frame column per output column), so the columnar
	// wire encoder can reuse scan-time dictionaries.
	if rel.Vec != nil && rel.Vec.Len() == len(rel.Rows) && rel.Vec.Frame.NumCols() == len(columns) {
		set.Vec = rel.Vec
	}
	return set
}

// setToRelation rebuilds an alias-qualified relation from a result set so it
// can participate in a post-join.
func setToRelation(set *ResultSet) *engine.Relation {
	rel := &engine.Relation{Cols: make([]engine.ColRef, len(set.Columns))}
	for i, c := range set.Columns {
		kind := types.KindText
		for _, r := range set.Rows {
			if !r[i].IsNull() {
				kind = r[i].Kind()
				break
			}
		}
		rel.Cols[i] = engine.ColRef{Rel: set.Name, Name: c, Kind: kind}
	}
	rel.Rows = set.Rows
	return rel
}
