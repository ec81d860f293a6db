package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/workload/hierarchy"
	"resultdb/internal/workload/job"
	"resultdb/internal/workload/star"
)

// This file is the correctness gate of the vectorized (colstore) execution
// path: for every workload query, the wire-encoded response of a vectorized
// database — across parallelism degrees and with the semantic result cache on
// and off — must be byte-identical to a row-path oracle that received exactly
// the same statements. The wire encoding covers set names, column lists, row
// data (values AND their order), and the shipped post-join plan, so any
// divergence — a kernel mis-evaluating three-valued logic, a dictionary code
// collision, a selection vector out of order, a dedup keeping the wrong
// duplicate — shows up as a byte diff.

// vecConfig is one vectorized candidate configuration.
type vecConfig struct {
	name  string
	par   int
	cache bool
}

var vecConfigs = []vecConfig{
	{"vec-par1", 1, false},
	{"vec-par4", 4, false},
	{"vec-par1-cache", 1, true},
	{"vec-par4-cache", 4, true},
}

// vecFleet loads the same workload into a row-path oracle and one vectorized
// candidate per configuration.
func vecFleet(t *testing.T, load func(d *db.Database) error) (*db.Database, []*db.Database) {
	t.Helper()
	oracle := db.New()
	oracle.CoreOptions.Vectorized = false
	oracle.CoreOptions.Parallelism = 1
	if err := load(oracle); err != nil {
		t.Fatal(err)
	}
	cands := make([]*db.Database, len(vecConfigs))
	for i, cfg := range vecConfigs {
		d := db.New()
		d.CoreOptions.Vectorized = true
		d.CoreOptions.Parallelism = cfg.par
		if cfg.cache {
			d.EnableCache(256 << 20)
		}
		if err := load(d); err != nil {
			t.Fatal(err)
		}
		cands[i] = d
	}
	return oracle, cands
}

// checkVec runs sql everywhere and requires byte-identical wire encodings.
// Cached candidates run twice so both the cold fill and the warm hit are
// compared against the oracle.
func checkVec(t *testing.T, oracle *db.Database, cands []*db.Database, name, sql string) {
	t.Helper()
	want := execBytes(t, oracle, sql)
	for i, d := range cands {
		got := execBytes(t, d, sql)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s [%s]: vectorized execution differs from row-path oracle\nsql: %s",
				name, vecConfigs[i].name, sql)
		}
		if vecConfigs[i].cache {
			warm := execBytes(t, d, sql)
			if !bytes.Equal(warm, want) {
				t.Fatalf("%s [%s]: warm (cache-hit) execution differs from row-path oracle",
					name, vecConfigs[i].name)
			}
		}
	}
}

func TestVectorizedDifferentialJOB(t *testing.T) {
	oracle, cands := vecFleet(t, func(d *db.Database) error {
		return job.Load(d, job.Config{Scale: 0.05, Seed: 42})
	})
	for _, q := range job.Queries() {
		sql := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
		checkVec(t, oracle, cands, q.Name+"/rdb", sql)
	}
	for _, name := range job.Table1Queries {
		q, err := job.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		trimmed := strings.TrimSpace(q.SQL)
		rp := "SELECT RESULTDB PRESERVING" + strings.TrimPrefix(trimmed, "SELECT")
		checkVec(t, oracle, cands, name+"/rdbrp", rp)
		checkVec(t, oracle, cands, name+"/st", trimmed)
	}
}

func TestVectorizedDifferentialStar(t *testing.T) {
	cfg := star.Config{Dims: 3, DimRows: 12, PayloadLen: 16, Seed: 7}
	oracle, cands := vecFleet(t, func(d *db.Database) error {
		return star.Load(d, cfg)
	})
	for _, sel := range []float64{0.2, 0.6, 1.0} {
		st := star.Query(cfg, sel)
		rdb := "SELECT RESULTDB" + strings.TrimPrefix(strings.TrimSpace(star.PayloadQuery(cfg, sel)), "SELECT")
		checkVec(t, oracle, cands, fmt.Sprintf("star-%.1f/st", sel), st)
		checkVec(t, oracle, cands, fmt.Sprintf("star-%.1f/rdb", sel), rdb)
	}
}

func TestVectorizedDifferentialHierarchy(t *testing.T) {
	oracle, cands := vecFleet(t, func(d *db.Database) error {
		return hierarchy.Load(d, hierarchy.DefaultConfig())
	})
	checkVec(t, oracle, cands, "hier/outer", strings.TrimSpace(hierarchy.OuterJoinQuery))
	checkVec(t, oracle, cands, "hier/rdb-electronics", strings.TrimSpace(hierarchy.ResultDBElectronics))
	checkVec(t, oracle, cands, "hier/rdb-clothing", strings.TrimSpace(hierarchy.ResultDBClothing))
}

// --- Property test: random schemas, rows, and predicates ---------------------

// propVariant shapes the random data so the corners of the columnar layout
// get hit: NULL-heavy columns (bitmap paths, three-valued logic) and
// degenerate TEXT dictionaries (one entry; all-distinct entries).
type propVariant struct {
	name     string
	nullProb float64
	// textMode: 0 = small shared dictionary, 1 = single value, 2 = all distinct
	textMode int
}

// propLoad creates two joinable tables with every column kind and fills them
// with seeded random rows (identical SQL on every database).
func propLoad(rng *rand.Rand, v propVariant) []string {
	stmts := []string{
		"CREATE TABLE r (k INT, a INT, b FLOAT, c TEXT, d BOOL)",
		"CREATE TABLE s (k INT, e INT, f TEXT)",
	}
	lit := func(gen func() string) string {
		if rng.Float64() < v.nullProb {
			return "NULL"
		}
		return gen()
	}
	text := func(i int) string {
		switch v.textMode {
		case 1:
			return "'const'"
		case 2:
			return fmt.Sprintf("'u%d'", i)
		default:
			return fmt.Sprintf("'v%d'", rng.Intn(8))
		}
	}
	var rRows, sRows []string
	for i := 0; i < 160; i++ {
		i := i
		rRows = append(rRows, fmt.Sprintf("(%s, %s, %s, %s, %s)",
			lit(func() string { return fmt.Sprintf("%d", rng.Intn(20)) }),
			lit(func() string { return fmt.Sprintf("%d", rng.Intn(100)) }),
			lit(func() string { return fmt.Sprintf("%d.%d", rng.Intn(50), rng.Intn(10)) }),
			lit(func() string { return text(i) }),
			lit(func() string {
				if rng.Intn(2) == 0 {
					return "TRUE"
				}
				return "FALSE"
			})))
	}
	for i := 0; i < 120; i++ {
		i := i
		sRows = append(sRows, fmt.Sprintf("(%s, %s, %s)",
			lit(func() string { return fmt.Sprintf("%d", rng.Intn(20)) }),
			lit(func() string { return fmt.Sprintf("%d", rng.Intn(100)) }),
			lit(func() string { return text(i + 1000) })))
	}
	stmts = append(stmts,
		"INSERT INTO r VALUES "+strings.Join(rRows, ", "),
		"INSERT INTO s VALUES "+strings.Join(sRows, ", "))
	return stmts
}

// rPreds and sPreds cover every kernel shape (typed comparisons both operand
// orders, BETWEEN, IN with a NULL item, LIKE, IS [NOT] NULL, bool equality,
// cross-kind comparisons that degenerate to constants) plus shapes that must
// fall back to the row-wise residual (column-vs-column, arithmetic).
var rPreds = []string{
	"r.a < 50",
	"60 > r.a",
	"r.a BETWEEN 10 AND 60",
	"r.a NOT BETWEEN 20 AND 80",
	"r.a IN (1, 2, 3, 17, 44)",
	"r.a IN (5, NULL, 61)",
	"r.a NOT IN (7, 8)",
	"r.c LIKE 'v%'",
	"r.c NOT LIKE '%3'",
	"r.c = 'v3'",
	"r.c IN ('v1', 'v2', 'const')",
	"r.c IS NULL",
	"r.b IS NOT NULL",
	"r.d = TRUE",
	"r.d <> FALSE",
	"r.a = 'not_a_number'",
	"r.a >= 25.5",
	"r.a <> 30",
	"r.a = r.k",
	"r.a + 0 < 50",
}

var sPreds = []string{
	"s.e < 70",
	"s.e BETWEEN 5 AND 95",
	"s.f LIKE 'v%'",
	"s.f IS NOT NULL",
	"s.e IN (10, 20, 30, 40)",
	"s.e * 1 >= 10",
}

// TestVectorizedDifferentialProperty sweeps seeded random predicate
// combinations over NULL-heavy and dictionary-degenerate data, comparing the
// vectorized candidates against the row-path oracle byte-for-byte in all
// three query modes.
func TestVectorizedDifferentialProperty(t *testing.T) {
	variants := []propVariant{
		{"nullheavy", 0.35, 0},
		{"dict1", 0.15, 1},
		{"dictN", 0.15, 2},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			dataRng := rand.New(rand.NewSource(31 + int64(v.textMode)))
			stmts := propLoad(dataRng, v)
			oracle, cands := vecFleet(t, func(d *db.Database) error {
				for _, s := range stmts {
					if _, err := d.Exec(s); err != nil {
						return fmt.Errorf("%q: %w", s[:min(len(s), 40)], err)
					}
				}
				return nil
			})
			qRng := rand.New(rand.NewSource(97 + int64(v.textMode)))
			for iter := 0; iter < 40; iter++ {
				conds := []string{"r.k = s.k"}
				for n := qRng.Intn(3) + 1; n > 0; n-- {
					conds = append(conds, rPreds[qRng.Intn(len(rPreds))])
				}
				for n := qRng.Intn(2); n > 0; n-- {
					conds = append(conds, sPreds[qRng.Intn(len(sPreds))])
				}
				where := strings.Join(conds, " AND ")
				st := fmt.Sprintf("SELECT DISTINCT r.a, r.c, s.f FROM r, s WHERE %s", where)
				rdb := fmt.Sprintf("SELECT RESULTDB r.a, r.c, s.f FROM r, s WHERE %s", where)
				rp := fmt.Sprintf("SELECT RESULTDB PRESERVING r.a, s.f FROM r, s WHERE %s", where)
				checkVec(t, oracle, cands, fmt.Sprintf("%s-%d/st", v.name, iter), st)
				checkVec(t, oracle, cands, fmt.Sprintf("%s-%d/rdb", v.name, iter), rdb)
				checkVec(t, oracle, cands, fmt.Sprintf("%s-%d/rdbrp", v.name, iter), rp)
			}
		})
	}
}
