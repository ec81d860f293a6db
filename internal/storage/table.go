// Package storage provides in-memory, row-major physical tables. A Table pairs a catalog.TableDef with its rows and is the unit the
// executor scans and the semi-join reducer filters.
package storage

import (
	"fmt"
	"sync"

	"resultdb/internal/catalog"
	"resultdb/internal/colstore"
	"resultdb/internal/types"
)

// Table is an in-memory relation: a definition plus rows.
//
// Under the MVCC regime (internal/db), a *Table is one published version of
// a relation, stamped with a version ID: the commit sequence number that
// published it (0 = not yet published). Once published, a version is never
// mutated again. Writers derive a successor with BeginVersion, apply their
// batch to the draft, and publish the draft as the next version — readers
// holding the old pointer keep a stable, fully consistent row set with zero
// locking. The row prefix is shared between versions (append-only storage),
// so deriving a version is O(1) and appending amortizes exactly like a plain
// slice.
//
// Bulk loaders (workload generators, CSV import, snapshot restore) follow the
// same rule: they fill an unpublished table built with NewTable and publish
// it once it is complete. Insert and InsertAll refuse a published table. The
// lazily built columnar image (Columns) belongs to exactly one version and is
// internally locked because concurrent readers of the same version may race
// to build it.
type Table struct {
	Def  *catalog.TableDef
	Rows []types.Row

	version uint64

	colMu sync.Mutex
	cols  *colstore.Frame
}

// NewTable returns an empty, unpublished table for def.
func NewTable(def *catalog.TableDef) *Table {
	return &Table{Def: def}
}

// BeginVersion derives a mutable, unpublished successor of a published
// version: it shares t's row prefix (copy-on-write — the parent's header caps
// what readers can see, so appends to the draft never become visible through
// old snapshots) and carries none of the parent's derived caches. The caller
// applies one mutation batch to the draft and publishes it; a draft discarded
// on error simply never becomes visible.
//
// Only one draft may be derived from the newest version at a time (the
// database's writer lock enforces this): successive versions share one
// growing backing array, and two concurrent drafts of the same parent would
// race on its append region.
func (t *Table) BeginVersion() *Table {
	return &Table{Def: t.Def, Rows: t.Rows}
}

// Version returns the ID of this published version — the commit sequence
// number that published it — or 0 while the table is unpublished. IDs are
// globally monotonic, so two versions of a name (including a dropped and
// re-created table) never share one, and anything derived from a version
// (statistics, plan verdicts, cached results) can be keyed on it.
func (t *Table) Version() uint64 { return t.version }

// Publish stamps an unpublished table with its version ID (a non-zero commit
// sequence number) just before it becomes visible to readers. From then on
// the table is immutable.
func (t *Table) Publish(version uint64) {
	if t.version != 0 || version == 0 {
		panic(fmt.Sprintf("storage: publish %q as version %d (already version %d)", t.Def.Name, version, t.version))
	}
	t.version = version
}

// mutable rejects mutations of a published version and discards the
// columnar image of an unpublished one that is about to change.
func (t *Table) mutable() error {
	if t.version != 0 {
		return fmt.Errorf("storage: table %q version %d is published and immutable", t.Def.Name, t.version)
	}
	t.cols = nil
	return nil
}

// insertRow validates and appends a row.
func (t *Table) insertRow(row types.Row) error {
	if len(row) != len(t.Def.Columns) {
		return fmt.Errorf("storage: table %q expects %d values, got %d",
			t.Def.Name, len(t.Def.Columns), len(row))
	}
	out := make(types.Row, len(row))
	for i, v := range row {
		col := t.Def.Columns[i]
		if v.IsNull() && col.NotNull {
			return fmt.Errorf("storage: NULL in NOT NULL column %s.%s", t.Def.Name, col.Name)
		}
		cv, err := types.Coerce(v, col.Type)
		if err != nil {
			return fmt.Errorf("storage: column %s.%s: %w", t.Def.Name, col.Name, err)
		}
		out[i] = cv
	}
	t.Rows = append(t.Rows, out)
	return nil
}

// Insert validates and appends a row. Values are coerced to column types;
// arity and NOT NULL violations are errors.
func (t *Table) Insert(row types.Row) error {
	if err := t.mutable(); err != nil {
		return err
	}
	return t.insertRow(row)
}

// InsertAll appends rows, stopping at the first error.
func (t *Table) InsertAll(rows []types.Row) error {
	if err := t.mutable(); err != nil {
		return err
	}
	for _, r := range rows {
		if err := t.insertRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.Rows) }

// WireSize returns the total result-set size in bytes under the paper's
// Section 6.1 accounting.
func (t *Table) WireSize() int {
	n := 0
	for _, r := range t.Rows {
		n += r.WireSize()
	}
	return n
}

// Columns returns the table's columnar image (typed vectors, dictionary-
// encoded TEXT, null bitmaps), building it lazily on first use. A published
// version never changes, so its frame is built at most once and shared by
// every reader; concurrent first calls serialize on a mutex and all get the
// same *Frame.
func (t *Table) Columns() *colstore.Frame {
	t.colMu.Lock()
	defer t.colMu.Unlock()
	if t.cols != nil {
		return t.cols
	}
	kinds := make([]types.Kind, len(t.Def.Columns))
	for i, c := range t.Def.Columns {
		kinds[i] = c.Type
	}
	t.cols = colstore.NewFrame(kinds, t.Rows)
	return t.cols
}
