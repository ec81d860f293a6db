package bench

import (
	"fmt"
	"strings"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/workload/star"
)

// StarPoint is one Figure 7 data point: result set sizes (bytes) of the
// star-schema query at one dimension-filter selectivity.
type StarPoint struct {
	Selectivity float64
	ST          int
	RDBRP       int
	RDB         int
}

// Redundancy is the denormalization redundancy band of Figure 7: the bytes
// the single-table result spends repeating dimension data that RDBRP
// returns exactly once.
func (p StarPoint) Redundancy() int { return p.ST - p.RDBRP }

// Fig7 loads a fresh star schema and sweeps the filter selectivity,
// measuring the three result sizes at each point. Selectivities defaults to
// 0.1 .. 1.0 in steps of 0.1 (the paper's x-axis).
func Fig7(cfg star.Config, selectivities []float64) ([]StarPoint, error) {
	if selectivities == nil {
		for s := 0.1; s <= 1.0001; s += 0.1 {
			selectivities = append(selectivities, s)
		}
	}
	d := db.New()
	if err := star.Load(d, cfg); err != nil {
		return nil, err
	}
	points := make([]StarPoint, 0, len(selectivities))
	for _, s := range selectivities {
		full, err := sqlparse.ParseSelect(star.Query(cfg, s))
		if err != nil {
			return nil, err
		}
		payload, err := sqlparse.ParseSelect(star.PayloadQuery(cfg, s))
		if err != nil {
			return nil, err
		}
		st, err := d.NewSession().Query(full)
		if err != nil {
			return nil, fmt.Errorf("bench: fig7 ST s=%.1f: %w", s, err)
		}
		// RDBRP keeps key information (paper: "both Single Table and RDBRP
		// include this key information"), so it runs on the full query.
		rdbrp, err := d.NewSession().QueryResultDB(full, db.ModeRDBRP)
		if err != nil {
			return nil, fmt.Errorf("bench: fig7 RDBRP s=%.1f: %w", s, err)
		}
		// RDB projects only the payloads: no primary or foreign keys.
		rdb, err := d.NewSession().QueryResultDB(payload, db.ModeRDB)
		if err != nil {
			return nil, fmt.Errorf("bench: fig7 RDB s=%.1f: %w", s, err)
		}
		points = append(points, StarPoint{
			Selectivity: s,
			ST:          st.WireSize(),
			RDBRP:       rdbrp.WireSize(),
			RDB:         rdb.WireSize(),
		})
	}
	return points, nil
}

// FormatFig7 renders the series as aligned columns (KiB), one row per
// selectivity — the data behind the paper's Figure 7 plot.
func FormatFig7(points []StarPoint) string {
	var b strings.Builder
	b.WriteString("Figure 7: star schema result set sizes [KiB] vs dimension filter selectivity\n")
	fmt.Fprintf(&b, "%-12s %12s %12s %12s %14s\n", "selectivity", "SingleTable", "RDBRP", "RDB", "redundancy")
	for _, p := range points {
		fmt.Fprintf(&b, "%-12.1f %12.2f %12.2f %12.2f %14.2f\n",
			p.Selectivity, kib(p.ST), kib(p.RDBRP), kib(p.RDB), kib(p.Redundancy()))
	}
	return b.String()
}
