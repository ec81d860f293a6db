// Package ssb implements a Star Schema Benchmark (SSB)-like workload: a
// lineorder fact table with customer, supplier, part, and date dimensions,
// and SPJ adaptations of the thirteen SSB query flights.
//
// The paper's Figure 7 uses a synthetic worst-case star schema; SSB is the
// standard realistic one, and its queries show how SELECT RESULTDB behaves
// on warehouse-shaped joins: the fact table is never projected in full, the
// dimensions compress massively, and the relationship-preserving form is
// dominated by the fact table's foreign keys.
package ssb

import (
	"fmt"
	"math/rand"

	"resultdb/internal/catalog"
	"resultdb/internal/db"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// Config sizes the generated database.
type Config struct {
	// Scale multiplies the base cardinalities (1.0 = 30k lineorders).
	Scale float64
	Seed  int64
}

// DefaultConfig is the benchmark-harness size.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 77} }

// Base cardinalities at Scale = 1.
const (
	nCustomer  = 1500
	nSupplier  = 100
	nPart      = 1000
	nDates     = 365 * 4 // four years of days
	nLineorder = 30000
)

func scaled(n int, s float64) int {
	v := int(float64(n) * s)
	if v < 1 {
		v = 1
	}
	return v
}

// Sizes reports per-table row counts for a config.
func Sizes(cfg Config) map[string]int {
	return map[string]int{
		"customer":  scaled(nCustomer, cfg.Scale),
		"supplier":  scaled(nSupplier, cfg.Scale),
		"part":      scaled(nPart, cfg.Scale),
		"dates":     nDates, // the calendar does not scale
		"lineorder": scaled(nLineorder, cfg.Scale),
	}
}

var regions = []string{"AMERICA", "ASIA", "EUROPE", "AFRICA", "MIDDLE EAST"}

// nationsOf maps each region to its nations (5 each, as in SSB).
var nationsOf = map[string][]string{
	"AMERICA":     {"UNITED STATES", "CANADA", "BRAZIL", "ARGENTINA", "PERU"},
	"ASIA":        {"CHINA", "JAPAN", "INDIA", "INDONESIA", "VIETNAM"},
	"EUROPE":      {"GERMANY", "FRANCE", "UNITED KINGDOM", "RUSSIA", "ROMANIA"},
	"AFRICA":      {"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"},
	"MIDDLE EAST": {"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"},
}

var mfgrs = []string{"MFGR#1", "MFGR#2", "MFGR#3", "MFGR#4", "MFGR#5"}
var colors = []string{"red", "green", "blue", "ivory", "navy", "plum", "gold", "mint"}

// Load creates and fills the SSB schema.
func Load(d *db.Database, cfg Config) error {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	sizes := Sizes(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))

	intc := func(n string) catalog.Column { return catalog.Column{Name: n, Type: types.KindInt} }
	text := func(n string) catalog.Column { return catalog.Column{Name: n, Type: types.KindText} }

	customer := catalog.MustTableDef("customer", []catalog.Column{
		intc("c_id"), text("c_name"), text("c_city"), text("c_nation"), text("c_region"),
	})
	customer.PrimaryKey = []string{"c_id"}
	supplier := catalog.MustTableDef("supplier", []catalog.Column{
		intc("s_id"), text("s_name"), text("s_city"), text("s_nation"), text("s_region"),
	})
	supplier.PrimaryKey = []string{"s_id"}
	part := catalog.MustTableDef("part", []catalog.Column{
		intc("p_id"), text("p_name"), text("p_mfgr"), text("p_category"), text("p_brand"), text("p_color"),
	})
	part.PrimaryKey = []string{"p_id"}
	dates := catalog.MustTableDef("dates", []catalog.Column{
		intc("d_id"), text("d_date"), intc("d_year"), intc("d_month"), intc("d_weeknum"),
	})
	dates.PrimaryKey = []string{"d_id"}
	lineorder := catalog.MustTableDef("lineorder", []catalog.Column{
		intc("lo_id"), intc("lo_custkey"), intc("lo_partkey"), intc("lo_suppkey"),
		intc("lo_orderdate"), intc("lo_quantity"), intc("lo_extendedprice"),
		intc("lo_discount"), intc("lo_revenue"),
	})
	lineorder.PrimaryKey = []string{"lo_id"}
	for _, fk := range []struct{ col, ref, refCol string }{
		{"lo_custkey", "customer", "c_id"},
		{"lo_partkey", "part", "p_id"},
		{"lo_suppkey", "supplier", "s_id"},
		{"lo_orderdate", "dates", "d_id"},
	} {
		lineorder.ForeignKeys = append(lineorder.ForeignKeys, catalog.ForeignKey{
			Columns: []string{fk.col}, RefTable: fk.ref, RefColumns: []string{fk.refCol},
		})
	}

	tabs := map[string]*storage.Table{}
	var all []*storage.Table
	for _, def := range []*catalog.TableDef{customer, supplier, part, dates, lineorder} {
		t := storage.NewTable(def)
		tabs[def.Name] = t
		all = append(all, t)
	}

	iv := func(v int) types.Value { return types.NewInt(int64(v)) }
	tv := func(s string) types.Value { return types.NewText(s) }

	geo := func() (city, nation, region string) {
		region = regions[rng.Intn(len(regions))]
		nation = nationsOf[region][rng.Intn(5)]
		city = fmt.Sprintf("%s-%d", nation[:3], rng.Intn(10))
		return
	}

	for i := 0; i < sizes["customer"]; i++ {
		city, nation, region := geo()
		err := tabs["customer"].Insert(types.Row{
			iv(i), tv(fmt.Sprintf("Customer#%06d", i)), tv(city), tv(nation), tv(region),
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < sizes["supplier"]; i++ {
		city, nation, region := geo()
		err := tabs["supplier"].Insert(types.Row{
			iv(i), tv(fmt.Sprintf("Supplier#%04d", i)), tv(city), tv(nation), tv(region),
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < sizes["part"]; i++ {
		mfgr := mfgrs[rng.Intn(len(mfgrs))]
		category := fmt.Sprintf("%s#%d", mfgr, 1+rng.Intn(5))
		brand := fmt.Sprintf("%s#%d", category, 1+rng.Intn(8))
		err := tabs["part"].Insert(types.Row{
			iv(i), tv(fmt.Sprintf("part-%05d", i)), tv(mfgr), tv(category), tv(brand),
			tv(colors[rng.Intn(len(colors))]),
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < nDates; i++ {
		year := 1992 + i/365
		doy := i % 365
		month := doy/31 + 1
		err := tabs["dates"].Insert(types.Row{
			iv(i), tv(fmt.Sprintf("%04d-%03d", year, doy)), iv(year), iv(month), iv(doy/7 + 1),
		})
		if err != nil {
			return err
		}
	}
	for i := 0; i < sizes["lineorder"]; i++ {
		qty := 1 + rng.Intn(50)
		price := 100 + rng.Intn(9900)
		discount := rng.Intn(11)
		err := tabs["lineorder"].Insert(types.Row{
			iv(i),
			iv(rng.Intn(sizes["customer"])),
			iv(rng.Intn(sizes["part"])),
			iv(rng.Intn(sizes["supplier"])),
			iv(rng.Intn(nDates)),
			iv(qty), iv(price), iv(discount),
			iv(price * qty * (100 - discount) / 100),
		})
		if err != nil {
			return err
		}
	}
	if err := d.CreateTables(all...); err != nil {
		return fmt.Errorf("ssb: %w", err)
	}
	return nil
}

// Query is one SSB flight instance in SPJ form.
type Query struct {
	Name string
	SQL  string
}

// Queries returns SPJ adaptations of the thirteen SSB flights: the joins
// and filters are the originals; aggregation (out of the paper's SPJ scope)
// is replaced by projecting the aggregation inputs plus the group-by
// attributes — exactly the columns a client-side aggregate would need.
func Queries() []Query {
	return ssbQueries
}

// QueryByName returns the named flight.
func QueryByName(name string) (Query, error) {
	for _, q := range ssbQueries {
		if q.Name == name {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("ssb: unknown query %q", name)
}

var ssbQueries = []Query{
	{"q1.1", `SELECT lo.lo_extendedprice, lo.lo_discount
FROM lineorder AS lo, dates AS d
WHERE lo.lo_orderdate = d.d_id AND d.d_year = 1993
  AND lo.lo_discount BETWEEN 1 AND 3 AND lo.lo_quantity < 25`},
	{"q1.2", `SELECT lo.lo_extendedprice, lo.lo_discount
FROM lineorder AS lo, dates AS d
WHERE lo.lo_orderdate = d.d_id AND d.d_year = 1994 AND d.d_month = 1
  AND lo.lo_discount BETWEEN 4 AND 6 AND lo.lo_quantity BETWEEN 26 AND 35`},
	{"q1.3", `SELECT lo.lo_extendedprice, lo.lo_discount
FROM lineorder AS lo, dates AS d
WHERE lo.lo_orderdate = d.d_id AND d.d_year = 1994 AND d.d_weeknum = 6
  AND lo.lo_discount BETWEEN 5 AND 7 AND lo.lo_quantity BETWEEN 26 AND 35`},
	{"q2.1", `SELECT lo.lo_revenue, d.d_year, p.p_brand
FROM lineorder AS lo, dates AS d, part AS p, supplier AS s
WHERE lo.lo_orderdate = d.d_id AND lo.lo_partkey = p.p_id AND lo.lo_suppkey = s.s_id
  AND p.p_category = 'MFGR#1#2' AND s.s_region = 'AMERICA'`},
	{"q2.2", `SELECT lo.lo_revenue, d.d_year, p.p_brand
FROM lineorder AS lo, dates AS d, part AS p, supplier AS s
WHERE lo.lo_orderdate = d.d_id AND lo.lo_partkey = p.p_id AND lo.lo_suppkey = s.s_id
  AND p.p_brand BETWEEN 'MFGR#2#2#2' AND 'MFGR#2#4#5' AND s.s_region = 'ASIA'`},
	{"q2.3", `SELECT lo.lo_revenue, d.d_year, p.p_brand
FROM lineorder AS lo, dates AS d, part AS p, supplier AS s
WHERE lo.lo_orderdate = d.d_id AND lo.lo_partkey = p.p_id AND lo.lo_suppkey = s.s_id
  AND p.p_brand = 'MFGR#3#3#3' AND s.s_region = 'EUROPE'`},
	{"q3.1", `SELECT c.c_nation, s.s_nation, d.d_year, lo.lo_revenue
FROM customer AS c, lineorder AS lo, supplier AS s, dates AS d
WHERE lo.lo_custkey = c.c_id AND lo.lo_suppkey = s.s_id AND lo.lo_orderdate = d.d_id
  AND c.c_region = 'ASIA' AND s.s_region = 'ASIA'
  AND d.d_year BETWEEN 1992 AND 1994`},
	{"q3.2", `SELECT c.c_city, s.s_city, d.d_year, lo.lo_revenue
FROM customer AS c, lineorder AS lo, supplier AS s, dates AS d
WHERE lo.lo_custkey = c.c_id AND lo.lo_suppkey = s.s_id AND lo.lo_orderdate = d.d_id
  AND c.c_nation = 'CHINA' AND s.s_nation = 'CHINA'
  AND d.d_year BETWEEN 1992 AND 1994`},
	{"q3.3", `SELECT c.c_city, s.s_city, d.d_year, lo.lo_revenue
FROM customer AS c, lineorder AS lo, supplier AS s, dates AS d
WHERE lo.lo_custkey = c.c_id AND lo.lo_suppkey = s.s_id AND lo.lo_orderdate = d.d_id
  AND c.c_city = 'CHI-1' AND s.s_nation = 'CHINA'`},
	{"q3.4", `SELECT c.c_city, s.s_city, d.d_year, lo.lo_revenue
FROM customer AS c, lineorder AS lo, supplier AS s, dates AS d
WHERE lo.lo_custkey = c.c_id AND lo.lo_suppkey = s.s_id AND lo.lo_orderdate = d.d_id
  AND c.c_city = 'UNI-1' AND s.s_city = 'UNI-2' AND d.d_year = 1993`},
	{"q4.1", `SELECT d.d_year, c.c_nation, lo.lo_revenue
FROM customer AS c, dates AS d, lineorder AS lo, part AS p, supplier AS s
WHERE lo.lo_custkey = c.c_id AND lo.lo_suppkey = s.s_id
  AND lo.lo_orderdate = d.d_id AND lo.lo_partkey = p.p_id
  AND c.c_region = 'AMERICA' AND s.s_region = 'AMERICA'
  AND p.p_mfgr IN ('MFGR#1', 'MFGR#2')`},
	{"q4.2", `SELECT d.d_year, s.s_nation, p.p_category, lo.lo_revenue
FROM customer AS c, dates AS d, lineorder AS lo, part AS p, supplier AS s
WHERE lo.lo_custkey = c.c_id AND lo.lo_suppkey = s.s_id
  AND lo.lo_orderdate = d.d_id AND lo.lo_partkey = p.p_id
  AND c.c_region = 'AMERICA' AND s.s_region = 'AMERICA'
  AND d.d_year BETWEEN 1994 AND 1995
  AND p.p_mfgr IN ('MFGR#1', 'MFGR#2')`},
	{"q4.3", `SELECT d.d_year, s.s_city, p.p_brand, lo.lo_revenue
FROM customer AS c, dates AS d, lineorder AS lo, part AS p, supplier AS s
WHERE lo.lo_custkey = c.c_id AND lo.lo_suppkey = s.s_id
  AND lo.lo_orderdate = d.d_id AND lo.lo_partkey = p.p_id
  AND c.c_region = 'AMERICA' AND s.s_nation = 'UNITED STATES'
  AND d.d_year BETWEEN 1994 AND 1995 AND p.p_category = 'MFGR#1#4'`},
}

// AggregateQueries returns the true (aggregate) form of selected SSB
// flights, exercising the engine's GROUP BY extension. Each pairs with the
// SPJ flight of the same name: the SPJ form returns exactly the aggregation
// inputs, so a client can compute the same aggregate from a subdatabase
// after the post-join.
func AggregateQueries() []Query {
	return []Query{
		{"q1.1-agg", `SELECT SUM(lo.lo_extendedprice * lo.lo_discount) AS revenue
FROM lineorder AS lo, dates AS d
WHERE lo.lo_orderdate = d.d_id AND d.d_year = 1993
  AND lo.lo_discount BETWEEN 1 AND 3 AND lo.lo_quantity < 25`},
		{"q2.1-agg", `SELECT SUM(lo.lo_revenue), d.d_year, p.p_brand
FROM lineorder AS lo, dates AS d, part AS p, supplier AS s
WHERE lo.lo_orderdate = d.d_id AND lo.lo_partkey = p.p_id AND lo.lo_suppkey = s.s_id
  AND p.p_category = 'MFGR#1#2' AND s.s_region = 'AMERICA'
GROUP BY d.d_year, p.p_brand
ORDER BY d.d_year, p.p_brand`},
		{"q3.1-agg", `SELECT c.c_nation, s.s_nation, d.d_year, SUM(lo.lo_revenue) AS revenue
FROM customer AS c, lineorder AS lo, supplier AS s, dates AS d
WHERE lo.lo_custkey = c.c_id AND lo.lo_suppkey = s.s_id AND lo.lo_orderdate = d.d_id
  AND c.c_region = 'ASIA' AND s.s_region = 'ASIA'
  AND d.d_year BETWEEN 1992 AND 1994
GROUP BY c.c_nation, s.s_nation, d.d_year
HAVING SUM(lo.lo_revenue) > 0
ORDER BY d.d_year`},
	}
}
