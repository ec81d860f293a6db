// Package star builds the worst-case star schema of the paper's Figure 7
// experiment: dimension tables plus a fact table containing their Cartesian
// product, so every dimension tuple joins with every combination of the
// others — maximum denormalization redundancy.
package star

import (
	"fmt"
	"math/rand"
	"strings"

	"resultdb/internal/catalog"
	"resultdb/internal/db"
	"resultdb/internal/storage"
	"resultdb/internal/types"
)

// Config shapes the schema.
type Config struct {
	// Dims is the number of dimension tables (the paper sketches three).
	Dims int
	// DimRows is the per-dimension cardinality; the fact table has
	// DimRows^Dims rows (the full Cartesian product).
	DimRows int
	// PayloadLen is the width of each dimension's text payload; wider
	// payloads widen the redundancy gap (Section 6.1).
	PayloadLen int
	// Seed makes the payloads deterministic.
	Seed int64
}

// DefaultConfig matches a laptop-friendly instantiation of Figure 7:
// 3 dimensions x 25 rows -> a 15,625-row fact table.
func DefaultConfig() Config {
	return Config{Dims: 3, DimRows: 25, PayloadLen: 40, Seed: 7}
}

// DimName returns the i-th dimension table name (d1, d2, ...).
func DimName(i int) string { return fmt.Sprintf("d%d", i+1) }

// Load fills the schema and publishes it in one commit. Each dimension d<i> has
// (id, payload, val) with val uniform in [0,100); filtering val < 100*s
// selects a fraction s of the dimension. The fact table has a foreign key
// per dimension plus a measure.
func Load(d *db.Database, cfg Config) error {
	if cfg.Dims < 1 {
		return fmt.Errorf("star: need at least one dimension")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var tables []*storage.Table
	for i := 0; i < cfg.Dims; i++ {
		def := catalog.MustTableDef(DimName(i), []catalog.Column{
			{Name: "id", Type: types.KindInt},
			{Name: "payload", Type: types.KindText},
			{Name: "val", Type: types.KindInt},
		})
		def.PrimaryKey = []string{"id"}
		t := storage.NewTable(def)
		tables = append(tables, t)
		for r := 0; r < cfg.DimRows; r++ {
			// val is a permutation-free uniform draw; using r mod 100 keeps
			// selectivity exact for DimRows <= 100.
			val := r * 100 / cfg.DimRows
			payload := randomPayload(rng, cfg.PayloadLen)
			err := t.Insert(types.Row{
				types.NewInt(int64(r)),
				types.NewText(payload),
				types.NewInt(int64(val)),
			})
			if err != nil {
				return err
			}
		}
	}

	factCols := []catalog.Column{{Name: "id", Type: types.KindInt}}
	for i := 0; i < cfg.Dims; i++ {
		factCols = append(factCols, catalog.Column{Name: DimName(i) + "_id", Type: types.KindInt})
	}
	factCols = append(factCols, catalog.Column{Name: "measure", Type: types.KindFloat})
	fdef := catalog.MustTableDef("fact", factCols)
	fdef.PrimaryKey = []string{"id"}
	for i := 0; i < cfg.Dims; i++ {
		fdef.ForeignKeys = append(fdef.ForeignKeys, catalog.ForeignKey{
			Columns: []string{DimName(i) + "_id"}, RefTable: DimName(i), RefColumns: []string{"id"},
		})
	}
	fact := storage.NewTable(fdef)
	tables = append(tables, fact)

	// Cartesian product of the dimensions (the paper's worst case).
	idx := make([]int, cfg.Dims)
	id := 0
	for {
		row := make(types.Row, 0, cfg.Dims+2)
		row = append(row, types.NewInt(int64(id)))
		for _, v := range idx {
			row = append(row, types.NewInt(int64(v)))
		}
		row = append(row, types.NewFloat(rng.Float64()*1000))
		if err := fact.Insert(row); err != nil {
			return err
		}
		id++
		// Odometer increment.
		pos := cfg.Dims - 1
		for pos >= 0 {
			idx[pos]++
			if idx[pos] < cfg.DimRows {
				break
			}
			idx[pos] = 0
			pos--
		}
		if pos < 0 {
			return d.CreateTables(tables...)
		}
	}
}

// Query builds the Figure 7 workload query: join the fact table with every
// dimension, select all attributes, and filter each dimension with the given
// selectivity in (0,1].
func Query(cfg Config, selectivity float64) string {
	var items, from, where []string
	items = append(items, "f.*")
	from = append(from, "fact AS f")
	cut := int(selectivity * 100)
	for i := 0; i < cfg.Dims; i++ {
		dn := DimName(i)
		items = append(items, dn+".*")
		from = append(from, fmt.Sprintf("%s AS %s", dn, dn))
		where = append(where, fmt.Sprintf("f.%s_id = %s.id", dn, dn))
		if cut < 100 {
			where = append(where, fmt.Sprintf("%s.val < %d", dn, cut))
		}
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(items, ", "), strings.Join(from, ", "), strings.Join(where, " AND "))
}

// PayloadQuery is the RDB variant of the Figure 7 query text: it projects
// only the payloads of the dimensions and the fact's measure, i.e. no key
// columns (the paper: "RDB only projects the payload of the dimension
// tables and the fact table").
func PayloadQuery(cfg Config, selectivity float64) string {
	var items, from, where []string
	items = append(items, "f.measure")
	from = append(from, "fact AS f")
	cut := int(selectivity * 100)
	for i := 0; i < cfg.Dims; i++ {
		dn := DimName(i)
		items = append(items, dn+".payload")
		from = append(from, fmt.Sprintf("%s AS %s", dn, dn))
		where = append(where, fmt.Sprintf("f.%s_id = %s.id", dn, dn))
		if cut < 100 {
			where = append(where, fmt.Sprintf("%s.val < %d", dn, cut))
		}
	}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		strings.Join(items, ", "), strings.Join(from, ", "), strings.Join(where, " AND "))
}

func randomPayload(rng *rand.Rand, n int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz "
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return string(b)
}
