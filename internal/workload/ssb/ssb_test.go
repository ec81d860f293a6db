package ssb

import (
	"sort"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
)

func loadSSB(t *testing.T, scale float64) *db.Database {
	t.Helper()
	d := db.New()
	if err := Load(d, Config{Scale: scale, Seed: 77}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLoadShapes(t *testing.T) {
	d := loadSSB(t, 0.2)
	sizes := Sizes(Config{Scale: 0.2})
	for name, want := range sizes {
		tab, err := d.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Len() != want {
			t.Errorf("%s rows = %d, want %d", name, tab.Len(), want)
		}
	}
	// FK integrity: every lineorder joins each dimension.
	lo, _ := d.Table("lineorder")
	for _, dim := range []struct{ col, tab, key string }{
		{"lo_custkey", "customer", "c_id"},
		{"lo_partkey", "part", "p_id"},
		{"lo_suppkey", "supplier", "s_id"},
		{"lo_orderdate", "dates", "d_id"},
	} {
		res, err := d.Exec("SELECT COUNT(*) FROM lineorder AS lo, " + dim.tab +
			" AS x WHERE lo." + dim.col + " = x." + dim.key)
		if err != nil {
			t.Fatal(err)
		}
		if res.First().Rows[0][0].Int() != int64(lo.Len()) {
			t.Errorf("dangling %s", dim.col)
		}
	}
}

func TestAllFlightsRunBothWays(t *testing.T) {
	d := loadSSB(t, 0.2)
	if len(Queries()) != 13 {
		t.Fatalf("flights = %d, want 13", len(Queries()))
	}
	nonEmpty := 0
	for _, q := range Queries() {
		sel, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			t.Fatalf("%s: parse: %v", q.Name, err)
		}
		st, err := d.NewSession().Query(sel)
		if err != nil {
			t.Fatalf("%s: single table: %v", q.Name, err)
		}
		rdb, err := d.NewSession().QueryResultDB(sel, db.ModeRDB)
		if err != nil {
			t.Fatalf("%s: resultdb: %v", q.Name, err)
		}
		rdbrp, err := d.NewSession().QueryResultDB(sel, db.ModeRDBRP)
		if err != nil {
			t.Fatalf("%s: rdbrp: %v", q.Name, err)
		}
		if st.First().NumRows() > 0 {
			nonEmpty++
		}
		// RDB never larger than RDBRP.
		if rdb.WireSize() > rdbrp.WireSize() {
			t.Errorf("%s: RDB %d > RDBRP %d", q.Name, rdb.WireSize(), rdbrp.WireSize())
		}
	}
	if nonEmpty < 8 {
		t.Errorf("only %d of 13 flights return rows; generator filters misaligned", nonEmpty)
	}
}

// TestDimensionCompression: SSB's whole point for ResultDB — dimension
// attributes repeat once per matching fact row in the single table, but
// appear once per entity in the subdatabase.
func TestDimensionCompression(t *testing.T) {
	d := loadSSB(t, 0.5)
	q, err := QueryByName("q3.1")
	if err != nil {
		t.Fatal(err)
	}
	sel, _ := sqlparse.ParseSelect(q.SQL)
	st, err := d.NewSession().Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	rdb, err := d.NewSession().QueryResultDB(sel, db.ModeRDB)
	if err != nil {
		t.Fatal(err)
	}
	if st.First().NumRows() < 100 {
		t.Skip("q3.1 too selective at this scale")
	}
	c := rdb.Set("c")
	if c == nil {
		t.Fatal("missing customer set")
	}
	if c.NumRows() >= st.First().NumRows() {
		t.Errorf("customer relation (%d) should be far smaller than the join (%d)",
			c.NumRows(), st.First().NumRows())
	}
	// Distinct nations only: at most 5 per region.
	if c.NumRows() > 5 {
		t.Errorf("ASIA customers project to %d distinct nations, want <= 5", c.NumRows())
	}
}

func TestStrategiesAgreeOnSSB(t *testing.T) {
	semi := loadSSB(t, 0.2)
	dec := loadSSB(t, 0.2)
	dec.Strategy = db.StrategyDecompose
	for _, q := range Queries() {
		sel, _ := sqlparse.ParseSelect(q.SQL)
		a, err := semi.NewSession().QueryResultDB(sel, db.ModeRDB)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		b, err := dec.NewSession().QueryResultDB(sel, db.ModeRDB)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if fp(a) != fp(b) {
			t.Errorf("%s: strategies disagree", q.Name)
		}
	}
}

func fp(res *db.Result) string {
	var parts []string
	for _, set := range res.Sets {
		rows := make([]string, len(set.Rows))
		for i, r := range set.Rows {
			rows[i] = r.String()
		}
		sort.Strings(rows)
		parts = append(parts, set.Name+"="+strings.Join(rows, ";"))
	}
	sort.Strings(parts)
	return strings.Join(parts, "\n")
}

func TestQueryByNameErrors(t *testing.T) {
	if _, err := QueryByName("q9.9"); err == nil {
		t.Error("unknown flight should error")
	}
}

// TestAggregateFlightsMatchManualAggregation: the GROUP BY form of a flight
// must equal aggregating the SPJ form's rows by hand — which is exactly
// what a client computing over a shipped subdatabase would do.
func TestAggregateFlightsMatchManualAggregation(t *testing.T) {
	d := loadSSB(t, 0.5)
	for _, aq := range AggregateQueries() {
		sel, err := sqlparse.ParseSelect(aq.SQL)
		if err != nil {
			t.Fatalf("%s: parse: %v", aq.Name, err)
		}
		res, err := d.NewSession().Query(sel)
		if err != nil {
			t.Fatalf("%s: %v", aq.Name, err)
		}
		if res.First() == nil {
			t.Fatalf("%s: no result", aq.Name)
		}
	}

	// Detailed check for q3.1: group the SPJ rows manually.
	spj, err := QueryByName("q3.1")
	if err != nil {
		t.Fatal(err)
	}
	spjSel, _ := sqlparse.ParseSelect(spj.SQL)
	rows, err := d.NewSession().Query(spjSel)
	if err != nil {
		t.Fatal(err)
	}
	manual := map[string]int64{}
	for _, r := range rows.First().Rows {
		// c_nation, s_nation, d_year, lo_revenue
		key := r[0].Text() + "|" + r[1].Text() + "|" + r[2].String()
		manual[key] += r[3].Int()
	}
	aggSel, _ := sqlparse.ParseSelect(AggregateQueries()[2].SQL)
	agg, err := d.NewSession().Query(aggSel)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.First().Rows) != len(manual) {
		t.Fatalf("groups = %d, manual %d", len(agg.First().Rows), len(manual))
	}
	for _, r := range agg.First().Rows {
		key := r[0].Text() + "|" + r[1].Text() + "|" + r[2].String()
		if manual[key] != r[3].Int() {
			t.Errorf("group %s: %d != %d", key, r[3].Int(), manual[key])
		}
	}
}
