// Package job provides the reproduction's stand-in for the Join Order
// Benchmark (JOB) over the IMDb dataset (Section 6, "Datasets & Workloads").
//
// The real IMDb snapshot is licensed and multi-gigabyte, so this package
// generates a synthetic database with the same schema skeleton, foreign-key
// topology, and skew characteristics that drive the paper's observations:
// movies follow a Zipf popularity distribution, fact-like tables
// (cast_info, movie_companies, movie_info, movie_keyword) reference hub
// relations (title, name, company_name), and text attributes carry enough
// width that denormalized join results amplify size. Query templates q(1b),
// q(2a), ... q(33c) mirror the 33 per-template instances evaluated in the
// paper's Figure 8 / Table 2.
package job

import (
	"fmt"

	"resultdb/internal/catalog"
	"resultdb/internal/db"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// Config controls generation.
type Config struct {
	// Scale multiplies every table's base cardinality; 1.0 is the default
	// benchmark size (small enough for CI, large enough for skew to show).
	Scale float64
	// Seed makes generation deterministic.
	Seed int64
}

// DefaultConfig is the size the benchmark harness uses.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 42} }

// Base cardinalities at Scale = 1.
const (
	nKindType    = 7
	nCompanyType = 4
	nRoleType    = 12
	nInfoType    = 20
	nKeyword     = 2000
	nCompany     = 2000
	nTitle       = 10000
	nName        = 20000
	nMovieComp   = 30000
	nCastInfo    = 80000
	nMovieInfo   = 40000
	nMovieKw     = 30000
)

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Sizes reports the per-table row counts for a config.
func Sizes(cfg Config) map[string]int {
	s := cfg.Scale
	return map[string]int{
		"kind_type":       nKindType,
		"company_type":    nCompanyType,
		"role_type":       nRoleType,
		"info_type":       nInfoType,
		"keyword":         scaled(nKeyword, s),
		"company_name":    scaled(nCompany, s),
		"title":           scaled(nTitle, s),
		"name":            scaled(nName, s),
		"movie_companies": scaled(nMovieComp, s),
		"cast_info":       scaled(nCastInfo, s),
		"movie_info":      scaled(nMovieInfo, s),
		"movie_keyword":   scaled(nMovieKw, s),
	}
}

// defs declares the IMDb-like schema with primary and foreign keys.
func defs() []*catalog.TableDef {
	intc := func(name string) catalog.Column { return catalog.Column{Name: name, Type: types.KindInt} }
	text := func(name string) catalog.Column { return catalog.Column{Name: name, Type: types.KindText} }

	mk := func(name string, pk string, cols ...catalog.Column) *catalog.TableDef {
		d := catalog.MustTableDef(name, cols)
		d.PrimaryKey = []string{pk}
		return d
	}
	fk := func(d *catalog.TableDef, col, refTable, refCol string) {
		d.ForeignKeys = append(d.ForeignKeys, catalog.ForeignKey{
			Columns: []string{col}, RefTable: refTable, RefColumns: []string{refCol},
		})
	}

	kindType := mk("kind_type", "id", intc("id"), text("kind"))
	companyType := mk("company_type", "id", intc("id"), text("kind"))
	roleType := mk("role_type", "id", intc("id"), text("role"))
	infoType := mk("info_type", "id", intc("id"), text("info"))
	keyword := mk("keyword", "id", intc("id"), text("keyword"))
	companyName := mk("company_name", "id", intc("id"), text("name"), text("country_code"))
	title := mk("title", "id", intc("id"), text("title"), intc("production_year"), intc("kind_id"))
	fk(title, "kind_id", "kind_type", "id")
	name := mk("name", "id", intc("id"), text("name"), text("gender"))
	movieCompanies := mk("movie_companies", "id",
		intc("id"), intc("movie_id"), intc("company_id"), intc("company_type_id"), text("note"))
	fk(movieCompanies, "movie_id", "title", "id")
	fk(movieCompanies, "company_id", "company_name", "id")
	fk(movieCompanies, "company_type_id", "company_type", "id")
	castInfo := mk("cast_info", "id",
		intc("id"), intc("person_id"), intc("movie_id"), intc("role_id"), text("note"))
	fk(castInfo, "person_id", "name", "id")
	fk(castInfo, "movie_id", "title", "id")
	fk(castInfo, "role_id", "role_type", "id")
	movieInfo := mk("movie_info", "id",
		intc("id"), intc("movie_id"), intc("info_type_id"), text("info"))
	fk(movieInfo, "movie_id", "title", "id")
	fk(movieInfo, "info_type_id", "info_type", "id")
	movieKeyword := mk("movie_keyword", "id", intc("id"), intc("movie_id"), intc("keyword_id"))
	fk(movieKeyword, "movie_id", "title", "id")
	fk(movieKeyword, "keyword_id", "keyword", "id")

	return []*catalog.TableDef{
		kindType, companyType, roleType, infoType, keyword, companyName,
		title, name, movieCompanies, castInfo, movieInfo, movieKeyword,
	}
}

// Load generates the schema's data and publishes the filled tables in one
// commit.
func Load(d *db.Database, cfg Config) error {
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	tables := make(map[string]*storage.Table)
	var all []*storage.Table
	for _, def := range defs() {
		t := storage.NewTable(def)
		tables[def.Name] = t
		all = append(all, t)
	}
	if err := newGen(cfg).fill(tables); err != nil {
		return err
	}
	if err := d.CreateTables(all...); err != nil {
		return fmt.Errorf("job: %w", err)
	}
	return nil
}
