package bench

import (
	"fmt"
	"strings"

	"resultdb/internal/db"
	"resultdb/internal/workload/job"
)

// SizeRow is one Table 1 entry: result set sizes in bytes for the three
// query types (Section 6, "Query Types") and the derived compression ratios.
type SizeRow struct {
	Query string
	ST    int
	RDBRP int
	RDB   int
}

// RatioRDBRP is size(ST)/size(RDBRP), the paper's compression ratio.
func (r SizeRow) RatioRDBRP() float64 { return ratio(r.ST, r.RDBRP) }

// RatioRDB is size(ST)/size(RDB).
func (r SizeRow) RatioRDB() float64 { return ratio(r.ST, r.RDB) }

func ratio(st, sub int) float64 {
	if sub == 0 {
		return 0
	}
	return float64(st) / float64(sub)
}

// Table1 measures result set sizes for the given JOB queries (defaults to
// the paper's ten) under ST, RDBRP, and RDB.
func (e *Env) Table1(queries []string) ([]SizeRow, error) {
	if queries == nil {
		queries = job.Table1Queries
	}
	rows := make([]SizeRow, 0, len(queries))
	for _, name := range queries {
		sel, err := e.Select(name)
		if err != nil {
			return nil, err
		}
		st, err := e.DB.NewSession().Query(sel)
		if err != nil {
			return nil, fmt.Errorf("bench: %s ST: %w", name, err)
		}
		rdbrp, err := e.DB.NewSession().QueryResultDB(sel, db.ModeRDBRP)
		if err != nil {
			return nil, fmt.Errorf("bench: %s RDBRP: %w", name, err)
		}
		rdb, err := e.DB.NewSession().QueryResultDB(sel, db.ModeRDB)
		if err != nil {
			return nil, fmt.Errorf("bench: %s RDB: %w", name, err)
		}
		rows = append(rows, SizeRow{
			Query: name,
			ST:    st.WireSize(),
			RDBRP: rdbrp.WireSize(),
			RDB:   rdb.WireSize(),
		})
	}
	return rows, nil
}

// FormatTable1 renders rows like the paper's Table 1: sizes in KiB with the
// compression ratio in parentheses.
func FormatTable1(rows []SizeRow) string {
	var b strings.Builder
	b.WriteString("Table 1: JOB result set sizes in KiB (compression ratio)\n")
	fmt.Fprintf(&b, "%-8s %14s %22s %22s\n", "Query", "ST", "RDBRP", "RDB")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %10.2f (1.0) %14.2f (%6.1f) %14.2f (%6.1f)\n",
			r.Query, kib(r.ST), kib(r.RDBRP), r.RatioRDBRP(), kib(r.RDB), r.RatioRDB())
	}
	return b.String()
}
