package bench

import (
	"fmt"
	"strings"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/rewrite"
	"resultdb/internal/sqlparse"
	"resultdb/internal/wire"
	"resultdb/internal/workload/job"
)

// EndToEndRow is one Table 3 column pair: single-table vs the best rewrite
// method, decomposed into query execution, (modeled) data transfer, and
// post-join time.
type EndToEndRow struct {
	Query string
	// Best is the rewrite method used for the RM side.
	Best rewrite.Method

	STExec     time.Duration
	STTransfer time.Duration

	RMExec     time.Duration
	RMTransfer time.Duration
	PostJoin   time.Duration
}

// STTotal is the single-table end-to-end time.
func (r EndToEndRow) STTotal() time.Duration { return r.STExec + r.STTransfer }

// RMTotal is the subdatabase end-to-end time.
func (r EndToEndRow) RMTotal() time.Duration { return r.RMExec + r.RMTransfer + r.PostJoin }

// Table3 measures end-to-end runtime for the given queries (nil = the
// paper's ten) under the transfer model (Section 6.4, default 100 Mbps).
// The RM side computes relationship-preserving subdatabases (RDBRP) so the
// client can reconstruct the single-table result; the post-join runs against
// the materialized reduced relations, like the paper's methodology.
func (e *Env) Table3(names []string, tm wire.TransferModel) ([]EndToEndRow, error) {
	if names == nil {
		names = job.Table1Queries
	}
	out := make([]EndToEndRow, 0, len(names))
	for _, name := range names {
		sel, err := e.Select(name)
		if err != nil {
			return nil, err
		}
		row := EndToEndRow{Query: name}

		// Single table: execution + transfer of the denormalized result.
		var stRes *db.Result
		row.STExec, err = median(e.Reps, func() error {
			stRes, err = e.DB.NewSession().Query(sel)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: table3 %s ST: %w", name, err)
		}
		row.STTransfer = tm.ResultDuration(stRes)

		// Best rewrite method on the RDBRP query.
		best, err := bestMethodFor(e, sel)
		if err != nil {
			return nil, fmt.Errorf("bench: table3 %s: %w", name, err)
		}
		row.Best = best
		plan, err := rewrite.Rewrite(sel, e.DB, best, rewrite.ModeRDBRP)
		if err != nil {
			return nil, err
		}
		var rmRes *db.Result
		row.RMExec, err = median(e.Reps, func() error {
			rmRes, err = rewrite.Run(e.DB, plan)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: table3 %s %s: %w", name, best, err)
		}
		row.RMTransfer = tm.ResultDuration(rmRes)

		// Post-join: reconstruct the single-table result client-side from
		// the materialized reduced relations.
		row.PostJoin, err = median(e.Reps, func() error {
			_, err := e.DB.PostJoin(sel, rmRes)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: table3 %s post-join: %w", name, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// bestMethodFor picks the fastest rewrite method by a quick single-rep race
// in RDBRP mode (the paper reports "the best rewrite method" per query).
func bestMethodFor(e *Env, sel *sqlparse.Select) (rewrite.Method, error) {
	var best rewrite.Method
	var bestT time.Duration
	for _, m := range rewrite.Methods {
		plan, err := rewrite.Rewrite(sel, e.DB, m, rewrite.ModeRDBRP)
		if err != nil {
			continue
		}
		t, err := median(1, func() error {
			_, err := rewrite.Run(e.DB, plan)
			return err
		})
		if err != nil {
			continue
		}
		if best == 0 || t < bestT {
			best, bestT = m, t
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("no rewrite method applies")
	}
	return best, nil
}

// FormatTable3 renders the breakdown like the paper's Table 3.
func FormatTable3(rows []EndToEndRow) string {
	var b strings.Builder
	b.WriteString("Table 3: end-to-end performance, Single Table (ST) vs best rewrite method (RM) [ms]\n")
	fmt.Fprintf(&b, "%-6s %4s | %10s %10s %10s | %10s %10s %10s %10s\n",
		"Query", "RM", "ST exec", "ST xfer", "ST total", "RM exec", "RM xfer", "postjoin", "RM total")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %4s | %10.2f %10.2f %10.2f | %10.2f %10.2f %10.2f %10.2f\n",
			r.Query, r.Best,
			ms(r.STExec), ms(r.STTransfer), ms(r.STTotal()),
			ms(r.RMExec), ms(r.RMTransfer), ms(r.PostJoin), ms(r.RMTotal()))
	}
	return b.String()
}
