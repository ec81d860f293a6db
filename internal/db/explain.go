package db

import (
	"resultdb/internal/sqlparse"
	"resultdb/internal/types"
)

// explain implements EXPLAIN [ANALYZE] <select>. The engine is
// main-memory and materializing, so EXPLAIN executes the plan and reports
// actual cardinalities per step. Both forms render from the same structured
// trace that Session.QueryWithTrace returns — there is exactly one
// plan-rendering path:
//
//   - EXPLAIN prints the compact classic plan (fully deterministic: one line
//     per step with actual cardinalities, no timings).
//   - EXPLAIN ANALYZE prints the annotated operator tree: spans grouped by
//     phase with rows in/out, key counts, transfer bytes, and (in trailing
//     brackets that tooling may strip) wall times, parallel degrees, morsel
//     counts, and the pinned snapshot's commit position.
//
// For RESULTDB queries the plan reports the join-graph analysis, folds, root
// choice, and the semi-join schedule of Algorithm 4.
func (d *Database) explain(ec execCtx, ex *sqlparse.Explain) (*Result, error) {
	_, tr, err := d.query(ec, ex.Query, true, nil)
	if err != nil {
		return nil, err
	}
	var lines []string
	if ex.Analyze {
		lines = tr.TreeLines()
	} else {
		lines = tr.CompactLines()
	}
	set := &ResultSet{Name: "plan", Columns: []string{"plan"}}
	for _, l := range lines {
		set.Rows = append(set.Rows, types.Row{types.NewText(l)})
	}
	return &Result{Sets: []*ResultSet{set}}, nil
}
