package star

import (
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
)

func TestLoadShapesAndCartesianFact(t *testing.T) {
	cfg := Config{Dims: 3, DimRows: 5, PayloadLen: 8, Seed: 1}
	d := db.New()
	if err := Load(d, cfg); err != nil {
		t.Fatal(err)
	}
	fact, err := d.Table("fact")
	if err != nil {
		t.Fatal(err)
	}
	if fact.Len() != 125 {
		t.Errorf("fact rows = %d, want 5^3 = 125", fact.Len())
	}
	for i := 0; i < cfg.Dims; i++ {
		dim, err := d.Table(DimName(i))
		if err != nil {
			t.Fatal(err)
		}
		if dim.Len() != 5 {
			t.Errorf("%s rows = %d", DimName(i), dim.Len())
		}
	}
	// Every dimension combination appears exactly once.
	res, err := d.Exec("SELECT COUNT(*) FROM fact AS f, d1 AS d1 WHERE f.d1_id = d1.id")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().Rows[0][0].Int() != 125 {
		t.Errorf("join count = %v", res.First().Rows[0][0])
	}
}

func TestSelectivityIsExact(t *testing.T) {
	cfg := Config{Dims: 2, DimRows: 10, PayloadLen: 4, Seed: 2}
	d := db.New()
	if err := Load(d, cfg); err != nil {
		t.Fatal(err)
	}
	// val < 50 must select exactly half of each dimension (val = r*100/n).
	res, err := d.Exec("SELECT COUNT(*) FROM d1 AS d1 WHERE d1.val < 50")
	if err != nil {
		t.Fatal(err)
	}
	if res.First().Rows[0][0].Int() != 5 {
		t.Errorf("selected %v of 10, want 5", res.First().Rows[0][0])
	}
	// Joint selectivity on the fact: s^2 * |fact|.
	sel, err := sqlparse.ParseSelect(Query(cfg, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	out, err := d.NewSession().Query(sel)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.First().NumRows(); got != 25 {
		t.Errorf("joined rows = %d, want 25 (0.5^2 * 100)", got)
	}
}

func TestQueriesParseAndModesShrink(t *testing.T) {
	cfg := Config{Dims: 3, DimRows: 8, PayloadLen: 16, Seed: 3}
	d := db.New()
	if err := Load(d, cfg); err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{0.25, 0.5, 1.0} {
		full, err := sqlparse.ParseSelect(Query(cfg, s))
		if err != nil {
			t.Fatalf("Query(%v): %v", s, err)
		}
		payload, err := sqlparse.ParseSelect(PayloadQuery(cfg, s))
		if err != nil {
			t.Fatalf("PayloadQuery(%v): %v", s, err)
		}
		st, err := d.NewSession().Query(full)
		if err != nil {
			t.Fatal(err)
		}
		rdbrp, err := d.NewSession().QueryResultDB(full, db.ModeRDBRP)
		if err != nil {
			t.Fatal(err)
		}
		rdb, err := d.NewSession().QueryResultDB(payload, db.ModeRDB)
		if err != nil {
			t.Fatal(err)
		}
		if !(st.WireSize() >= rdbrp.WireSize() && rdbrp.WireSize() >= rdb.WireSize()) {
			t.Errorf("s=%v: sizes not ordered ST(%d) >= RDBRP(%d) >= RDB(%d)",
				s, st.WireSize(), rdbrp.WireSize(), rdb.WireSize())
		}
	}
}

func TestLoadValidatesConfig(t *testing.T) {
	if err := Load(db.New(), Config{Dims: 0}); err == nil {
		t.Error("zero dimensions should fail")
	}
}

func TestDimName(t *testing.T) {
	if DimName(0) != "d1" || DimName(2) != "d3" {
		t.Error("DimName numbering off")
	}
}
