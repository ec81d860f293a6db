package wire

import (
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/engine"
	"resultdb/internal/types"
	"resultdb/internal/workload/job"
)

// TestPostJoinDifferentialJOB checks the client post-join on the paper's
// Table 1 queries at scale 0.25: after a v2 encode/decode round trip, the
// late-materialized reconstruction (db.ExecutePostJoinPlan) must equal the
// materializing JoinAll + Project over the same decoded sets in rows, kinds
// and row order.
func TestPostJoinDifferentialJOB(t *testing.T) {
	d := db.New()
	if err := job.Load(d, job.Config{Scale: 0.25, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	for _, name := range job.Table1Queries {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sql := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		res, err := d.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeResult(EncodeResultV2(res))
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		post, err := db.ExecutePostJoinPlan(got)
		if err != nil {
			t.Fatalf("%s: post-join: %v", name, err)
		}

		rels := make(map[string]*engine.Relation, len(got.Sets))
		for _, set := range got.Sets {
			rels[strings.ToLower(set.Name)] = setRelation(set)
		}
		joined, err := engine.JoinAll(got.PostJoinPlan.Preds, rels)
		if err != nil {
			t.Fatalf("%s: JoinAll: %v", name, err)
		}
		cols := make([]int, len(got.PostJoinPlan.Projection))
		for i, a := range got.PostJoinPlan.Projection {
			if cols[i], err = joined.ColIndex(a.Rel, a.Col); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		want := joined.Project(cols)

		if strings.Join(post.Columns, ",") != strings.Join(want.ColumnNames(), ",") {
			t.Fatalf("%s: columns %v, want %v", name, post.Columns, want.ColumnNames())
		}
		if len(post.Rows) != len(want.Rows) || len(want.Rows) == 0 {
			t.Fatalf("%s: %d rows, want %d (> 0)", name, len(post.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if !identicalRow(post.Rows[i], want.Rows[i]) {
				t.Fatalf("%s: row %d is %v, want %v", name, i, post.Rows[i], want.Rows[i])
			}
		}
	}
}

// setRelation is the relation view of a decoded result set, with the
// alias-qualified columns the post-join plan refers to.
func setRelation(set *db.ResultSet) *engine.Relation {
	rel := &engine.Relation{Rows: set.Rows}
	for _, c := range set.Columns {
		rel.Cols = append(rel.Cols, engine.ColRef{Rel: set.Name, Name: c})
	}
	return rel
}

func identicalRow(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || !types.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
