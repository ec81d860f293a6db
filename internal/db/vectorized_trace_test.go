package db_test

// Trace invariants of the vectorized path: an EXPLAIN ANALYZE observer must
// not be able to distinguish a vectorized execution from a row-path execution
// of the same query except through the `vectorized` span flag (and the
// dictionary-size annotation that rides with it). Concretely: the
// deterministic portion of the trace (CountsFingerprint — ops, labels,
// phases, details, cardinalities, key counts, byte counts, whole-query
// counters) is bit-identical across the two paths, the vectorized trace marks
// at least one span Vec, and the row-path trace marks none.

import (
	"strings"
	"testing"

	"resultdb/internal/workload/job"
)

func TestVectorizedTraceFingerprintMatchesRowPath(t *testing.T) {
	row := loadJOBTrace(t)
	row.CoreOptions.Vectorized = false
	vec := loadJOBTrace(t)
	vec.CoreOptions.Vectorized = true

	check := func(name, sql string, resultDB bool) {
		t.Helper()
		_, trRow := tracedQuery(t, row, sql, resultDB)
		_, trVec := tracedQuery(t, vec, sql, resultDB)
		if got, want := trVec.CountsFingerprint(), trRow.CountsFingerprint(); got != want {
			t.Errorf("%s: vectorized trace fingerprint differs from row path\nrow:\n%s\nvec:\n%s",
				name, want, got)
		}
		for i := range trRow.Spans {
			if trRow.Spans[i].Vec {
				t.Errorf("%s: row-path span %d (%s %s) marked vectorized",
					name, i, trRow.Spans[i].Op, trRow.Spans[i].Label)
			}
		}
		anyVec := false
		for i := range trVec.Spans {
			if trVec.Spans[i].Vec {
				anyVec = true
				break
			}
		}
		if !anyVec {
			t.Errorf("%s: vectorized trace has no span marked vectorized", name)
		}
	}

	for _, q := range job.Queries() {
		check(q.Name+"/rdb", q.SQL, true)
		check(q.Name+"/st", q.SQL, false)
	}
}

// TestVectorizedTraceDictAnnotation: vectorized scans of tables with TEXT
// columns report the dictionary size, and the annotation renders inside the
// strippable bracket (so classic EXPLAIN output stays unchanged).
func TestVectorizedTraceDictAnnotation(t *testing.T) {
	d := loadJOBTrace(t)
	d.CoreOptions.Vectorized = true
	q, err := job.QueryByName("1b")
	if err != nil {
		t.Fatal(err)
	}
	_, tr := tracedQuery(t, d, q.SQL, true)
	found := false
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.Op == "scan" && sp.Vec && sp.Dict > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no vectorized scan span carries a dictionary size")
	}
	lines := strings.Join(tr.TreeLines(), "\n")
	if !strings.Contains(lines, "vectorized") {
		t.Fatal("EXPLAIN ANALYZE output does not annotate vectorized operators")
	}
	compact := strings.Join(tr.CompactLines(), "\n")
	if strings.Contains(compact, "vectorized") || strings.Contains(compact, "dict ") {
		t.Fatal("classic EXPLAIN output must not change with vectorization")
	}
}
