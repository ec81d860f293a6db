// Package hierarchy builds the subtype schema of the paper's Figure 3 —
// products with electronics and clothing subtypes — used by the
// hierarchical-data use case (Section 1.2, Listing 2): retrieving rows from
// multiple distinct relations that lack a common schema forces OUTER JOINs
// and NULL padding under single-table SQL, while RESULTDB returns each
// subtype as its own clean relation.
package hierarchy

import (
	"fmt"
	"math/rand"

	"resultdb/internal/catalog"
	"resultdb/internal/db"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// Config sizes the catalog.
type Config struct {
	// Products is the supertype cardinality; roughly half are electronics
	// and half clothing.
	Products int
	Seed     int64
}

// DefaultConfig is a small demo size.
func DefaultConfig() Config { return Config{Products: 1000, Seed: 11} }

// Load creates products/electronics/clothing with Figure 3's shape.
func Load(d *db.Database, cfg Config) error {
	products := catalog.MustTableDef("products", []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "name", Type: types.KindText},
		{Name: "price", Type: types.KindInt},
	})
	products.PrimaryKey = []string{"id"}
	electronics := catalog.MustTableDef("electronics", []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "pid", Type: types.KindInt},
		{Name: "storage", Type: types.KindText},
	})
	electronics.PrimaryKey = []string{"id"}
	electronics.ForeignKeys = []catalog.ForeignKey{{Columns: []string{"pid"}, RefTable: "products", RefColumns: []string{"id"}}}
	clothing := catalog.MustTableDef("clothing", []catalog.Column{
		{Name: "id", Type: types.KindInt},
		{Name: "pid", Type: types.KindInt},
		{Name: "size", Type: types.KindText},
	})
	clothing.PrimaryKey = []string{"id"}
	clothing.ForeignKeys = []catalog.ForeignKey{{Columns: []string{"pid"}, RefTable: "products", RefColumns: []string{"id"}}}

	pt, et, ct := storage.NewTable(products), storage.NewTable(electronics), storage.NewTable(clothing)

	rng := rand.New(rand.NewSource(cfg.Seed))
	electronicNames := []string{"smartphone", "laptop", "tablet", "camera", "headphones", "monitor"}
	clothingNames := []string{"shirt", "pants", "jacket", "dress", "socks", "coat"}
	storages := []string{"32 GB", "64 GB", "128 GB", "256 GB", "1 TB"}
	sizes := []string{"XS", "S", "M", "L", "XL"}

	eid, cid := 0, 0
	for i := 0; i < cfg.Products; i++ {
		isElectronic := i%2 == 0
		var name string
		var price int
		if isElectronic {
			name = electronicNames[rng.Intn(len(electronicNames))]
			price = 100 + rng.Intn(3900) // 100..3999
		} else {
			name = clothingNames[rng.Intn(len(clothingNames))]
			price = 10 + rng.Intn(290) // 10..299
		}
		err := pt.Insert(types.Row{
			types.NewInt(int64(i)),
			types.NewText(fmt.Sprintf("%s-%d", name, i)),
			types.NewInt(int64(price)),
		})
		if err != nil {
			return err
		}
		if isElectronic {
			err = et.Insert(types.Row{
				types.NewInt(int64(eid)),
				types.NewInt(int64(i)),
				types.NewText(storages[rng.Intn(len(storages))]),
			})
			eid++
		} else {
			err = ct.Insert(types.Row{
				types.NewInt(int64(cid)),
				types.NewInt(int64(i)),
				types.NewText(sizes[rng.Intn(len(sizes))]),
			})
			cid++
		}
		if err != nil {
			return err
		}
	}
	return d.CreateTables(pt, et, ct)
}

// OuterJoinQuery is Listing 2: the single-table formulation, forced into
// LEFT OUTER JOINs with NULL padding.
const OuterJoinQuery = `
SELECT e.*, c.*
FROM products AS p
LEFT OUTER JOIN electronics AS e ON p.id = e.pid
LEFT OUTER JOIN clothing AS c ON p.id = c.pid
WHERE p.price < 1000`

// ResultDBElectronics and ResultDBClothing are the subdatabase formulation:
// each subtype restricted to products under the price cap, no NULL padding.
// (A future UNION-free multi-root RESULTDB could merge these into one
// statement; with SPJ-only RESULTDB each subtype is one query.)
const (
	ResultDBElectronics = `
SELECT RESULTDB e.id, e.pid, e.storage
FROM products AS p, electronics AS e
WHERE p.id = e.pid AND p.price < 1000`
	ResultDBClothing = `
SELECT RESULTDB c.id, c.pid, c.size
FROM products AS p, clothing AS c
WHERE p.id = c.pid AND p.price < 1000`
)
