package bench

import (
	"fmt"
	"strings"
	"time"

	"resultdb/internal/rewrite"
)

// OverheadRow is one Table 2 entry: the best rewrite method per query and
// its overhead relative to single-table execution (negative = faster).
type OverheadRow struct {
	Query    string
	Best     rewrite.Method
	BestTime time.Duration
	STTime   time.Duration
}

// Overhead is (best - st)/st as a percentage, the paper's Table 2 number.
func (r OverheadRow) Overhead() float64 {
	if r.STTime == 0 {
		return 0
	}
	return (float64(r.BestTime)/float64(r.STTime) - 1) * 100
}

// Table2 measures single-table baselines and combines them with Figure 8
// timings into per-query overheads. Passing the already-computed fig8 rows
// avoids re-running the rewrites.
func (e *Env) Table2(fig8 []RMTiming) ([]OverheadRow, error) {
	out := make([]OverheadRow, 0, len(fig8))
	for _, rm := range fig8 {
		sel, err := e.Select(rm.Query)
		if err != nil {
			return nil, err
		}
		st, err := median(e.Reps, func() error {
			_, err := e.DB.NewSession().Query(sel)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s ST: %w", rm.Query, err)
		}
		best, bestT := rm.Best()
		out = append(out, OverheadRow{Query: rm.Query, Best: best, BestTime: bestT, STTime: st})
	}
	return out, nil
}

// FormatTable2 renders per-query overheads like the paper's Table 2.
func FormatTable2(rows []OverheadRow) string {
	var b strings.Builder
	b.WriteString("Table 2: overhead of the best rewrite method vs single-table execution\n")
	fmt.Fprintf(&b, "%-6s %10s %8s %12s %12s\n", "Query", "Overhead", "Best", "Best [ms]", "ST [ms]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %9.1f%% %8s %12.2f %12.2f\n",
			r.Query, r.Overhead(), r.Best, ms(r.BestTime), ms(r.STTime))
	}
	wins := map[rewrite.Method]int{}
	for _, r := range rows {
		wins[r.Best]++
	}
	b.WriteString("best-method wins:")
	for _, m := range rewrite.Methods {
		fmt.Fprintf(&b, " %s=%d", m, wins[m])
	}
	b.WriteByte('\n')
	return b.String()
}
