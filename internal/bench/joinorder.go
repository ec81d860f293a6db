package bench

import (
	"fmt"
	"strings"
	"time"
)

// JoinOrderRow compares single-table execution under the greedy join order
// and the DPsize optimizer on one query.
type JoinOrderRow struct {
	Query  string
	Greedy time.Duration
	DP     time.Duration
}

// AblationJoinOrder measures greedy vs DP join ordering for the single-table
// execution of the given JOB queries (nil = all 33). An engine-substrate
// ablation: it quantifies how much the paper's "true cardinality" framing
// depends on the ordering policy.
func (e *Env) AblationJoinOrder(names []string) ([]JoinOrderRow, error) {
	if names == nil {
		for _, q := range allQueryNames() {
			names = append(names, q)
		}
	}
	var out []JoinOrderRow
	defer func() { e.DB.DPJoinOrder = false }()
	for _, name := range names {
		sel, err := e.Select(name)
		if err != nil {
			return nil, err
		}
		row := JoinOrderRow{Query: name}

		e.DB.DPJoinOrder = false
		row.Greedy, err = median(e.Reps, func() error {
			_, err := e.DB.NewSession().Query(sel)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: joinorder %s greedy: %w", name, err)
		}

		e.DB.DPJoinOrder = true
		row.DP, err = median(e.Reps, func() error {
			_, err := e.DB.NewSession().Query(sel)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("bench: joinorder %s dp: %w", name, err)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatJoinOrder renders the comparison.
func FormatJoinOrder(rows []JoinOrderRow) string {
	var b strings.Builder
	b.WriteString("Ablation: join ordering for single-table execution [ms]\n")
	fmt.Fprintf(&b, "%-6s %12s %12s %8s\n", "Query", "greedy", "DPsize", "speedup")
	for _, r := range rows {
		speedup := 1.0
		if r.DP > 0 {
			speedup = float64(r.Greedy) / float64(r.DP)
		}
		fmt.Fprintf(&b, "%-6s %12.2f %12.2f %7.2fx\n", r.Query, ms(r.Greedy), ms(r.DP), speedup)
	}
	return b.String()
}
