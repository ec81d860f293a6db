package bench

import (
	"fmt"
	"strings"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/workload/ssb"
)

// SSBRow is one SSB flight's measurement: result sizes for the three query
// types and execution times for single-table vs the native algorithm.
type SSBRow struct {
	Query     string
	STBytes   int
	RDBRP     int
	RDB       int
	STTime    time.Duration
	RDBTime   time.Duration
	STRows    int
	Relations int
}

// Ratio is size(ST)/size(RDB).
func (r SSBRow) Ratio() float64 {
	if r.RDB == 0 {
		return 0
	}
	return float64(r.STBytes) / float64(r.RDB)
}

// SSB loads the Star Schema Benchmark workload and measures every flight.
// It extends the paper's synthetic Figure 7 star schema with the standard
// warehouse benchmark shape.
func SSB(cfg ssb.Config, reps int) ([]SSBRow, error) {
	d := db.New()
	if err := ssb.Load(d, cfg); err != nil {
		return nil, err
	}
	var out []SSBRow
	for _, q := range ssb.Queries() {
		sel, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("bench: ssb %s: %w", q.Name, err)
		}
		row := SSBRow{Query: q.Name}

		var st *db.Result
		row.STTime, err = median(reps, func() error {
			st, err = d.NewSession().Query(sel)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: ssb %s ST: %w", q.Name, err)
		}
		row.STBytes = st.WireSize()
		row.STRows = st.First().NumRows()

		var rdb *db.Result
		row.RDBTime, err = median(reps, func() error {
			rdb, err = d.NewSession().QueryResultDB(sel, db.ModeRDB)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: ssb %s RDB: %w", q.Name, err)
		}
		row.RDB = rdb.WireSize()
		row.Relations = len(rdb.Sets)

		rdbrp, err := d.NewSession().QueryResultDB(sel, db.ModeRDBRP)
		if err != nil {
			return nil, fmt.Errorf("bench: ssb %s RDBRP: %w", q.Name, err)
		}
		row.RDBRP = rdbrp.WireSize()
		out = append(out, row)
	}
	return out, nil
}

// FormatSSB renders the flight table.
func FormatSSB(rows []SSBRow) string {
	var b strings.Builder
	b.WriteString("SSB flights: sizes [KiB] and execution [ms], single table vs RESULTDB\n")
	fmt.Fprintf(&b, "%-6s %8s %10s %10s %10s %8s %10s %10s %5s\n",
		"Query", "ST rows", "ST KiB", "RDBRP KiB", "RDB KiB", "ratio", "ST ms", "RDB ms", "rels")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %8d %10.2f %10.2f %10.2f %7.1fx %10.2f %10.2f %5d\n",
			r.Query, r.STRows, kib(r.STBytes), kib(r.RDBRP), kib(r.RDB), r.Ratio(),
			ms(r.STTime), ms(r.RDBTime), r.Relations)
	}
	return b.String()
}
