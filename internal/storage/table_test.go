package storage

import (
	"sync"
	"testing"

	"resultdb/internal/catalog"
	"resultdb/internal/colstore"
	"resultdb/internal/types"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	def := catalog.MustTableDef("t", []catalog.Column{
		{Name: "id", Type: types.KindInt, NotNull: true},
		{Name: "name", Type: types.KindText},
		{Name: "score", Type: types.KindFloat},
	})
	def.PrimaryKey = []string{"id"}
	return NewTable(def)
}

func TestInsertValidation(t *testing.T) {
	tab := newTable(t)
	ok := types.Row{types.NewInt(1), types.NewText("a"), types.NewFloat(1.5)}
	if err := tab.Insert(ok); err != nil {
		t.Fatal(err)
	}
	// Arity mismatch.
	if err := tab.Insert(types.Row{types.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	// NOT NULL violation.
	if err := tab.Insert(types.Row{types.Null(), types.NewText("a"), types.Null()}); err == nil {
		t.Error("NULL in NOT NULL column accepted")
	}
	// Coercion: int into float column.
	if err := tab.Insert(types.Row{types.NewInt(2), types.Null(), types.NewInt(3)}); err != nil {
		t.Errorf("int->float coercion failed: %v", err)
	}
	if got := tab.Rows[1][2]; got.Kind() != types.KindFloat || got.Float() != 3 {
		t.Errorf("coerced value = %v", got)
	}
	// Type error: text into int column.
	if err := tab.Insert(types.Row{types.NewText("x"), types.Null(), types.Null()}); err == nil {
		t.Error("text into int column accepted")
	}
	if tab.Len() != 2 {
		t.Errorf("Len = %d, want 2", tab.Len())
	}
}

func TestWireSize(t *testing.T) {
	tab := newTable(t)
	if err := tab.InsertAll([]types.Row{
		{types.NewInt(2), types.NewText("bb"), types.NewFloat(0)},
		{types.NewInt(1), types.NewText("a"), types.NewFloat(0)},
	}); err != nil {
		t.Fatal(err)
	}
	// id(8) + name(2) + score(8) + id(8) + name(1) + score(8)
	if got := tab.WireSize(); got != 35 {
		t.Errorf("WireSize = %d, want 35", got)
	}
}

// TestColumnsCacheAndGeneration: the columnar frame is built lazily and
// cached; mutating an unpublished table discards it, and a published version
// (one generation of the relation, identified by its version ID) keeps its
// frame for good.
func TestColumnsCacheAndGeneration(t *testing.T) {
	tab := newTable(t)
	rows := []types.Row{
		{types.NewInt(1), types.NewText("a"), types.NewFloat(1.5)},
		{types.NewInt(2), types.NewText("b"), types.Null()},
		{types.NewInt(3), types.Null(), types.NewFloat(3.5)},
	}
	if err := tab.InsertAll(rows); err != nil {
		t.Fatal(err)
	}

	f := tab.Columns()
	if f.Rows() != 3 {
		t.Fatalf("frame rows = %d, want 3", f.Rows())
	}
	if tab.Columns() != f {
		t.Fatal("Columns() rebuilt the frame without any table change")
	}

	// A single insert invalidates; the next Columns() sees the new row.
	if err := tab.Insert(types.Row{types.NewInt(4), types.NewText("a"), types.Null()}); err != nil {
		t.Fatal(err)
	}
	f2 := tab.Columns()
	if f2 == f {
		t.Fatal("Columns() returned a stale frame after Insert")
	}
	if f2.Rows() != 4 {
		t.Fatalf("frame rows after insert = %d, want 4", f2.Rows())
	}
	// Frame values reconstruct the stored rows exactly.
	for j, row := range tab.Rows {
		for c := range row {
			if !types.Equal(f2.Col(c).Value(j), row[c]) {
				t.Fatalf("frame[%d][%d] = %v, want %v", c, j, f2.Col(c).Value(j), row[c])
			}
		}
	}

	// Once published, the version keeps its frame; its successor starts
	// without one and builds its own.
	tab.Publish(7)
	if tab.Columns() != f2 {
		t.Fatal("publishing discarded the frame")
	}
	next := tab.BeginVersion()
	if err := next.Insert(types.Row{types.NewInt(5), types.Null(), types.Null()}); err != nil {
		t.Fatal(err)
	}
	if f3 := next.Columns(); f3 == f2 || f3.Rows() != 5 {
		t.Fatalf("successor frame rows = %d (shared with parent: %v), want its own 5-row frame", f3.Rows(), f3 == f2)
	}
	if tab.Columns() != f2 || f2.Rows() != 4 {
		t.Fatal("successor's insert disturbed the published version's frame")
	}
}

// TestPublishedVersionIsImmutable: a table gets its version ID when it is
// published, refuses every mutation from then on, and derives unpublished
// successors.
func TestPublishedVersionIsImmutable(t *testing.T) {
	tab := newTable(t)
	if tab.Version() != 0 {
		t.Fatalf("new table has version %d, want 0 (unpublished)", tab.Version())
	}
	row := types.Row{types.NewInt(1), types.Null(), types.Null()}
	if err := tab.Insert(row); err != nil {
		t.Fatal(err)
	}
	tab.Publish(3)
	if tab.Version() != 3 {
		t.Fatalf("Version = %d, want 3", tab.Version())
	}
	if err := tab.Insert(row); err == nil {
		t.Fatal("Insert into a published version succeeded")
	}
	if err := tab.InsertAll([]types.Row{row}); err == nil {
		t.Fatal("InsertAll into a published version succeeded")
	}
	if tab.Len() != 1 {
		t.Fatalf("published version has %d rows, want 1", tab.Len())
	}
	next := tab.BeginVersion()
	if next.Version() != 0 || next.Len() != 1 {
		t.Fatalf("successor: version %d, %d rows; want unpublished with the parent's row", next.Version(), next.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("publishing a version twice did not panic")
		}
	}()
	tab.Publish(4)
}

// TestColumnsConcurrentReaders: readers racing on one published version's
// first Columns() call all get the same frame (run under -race).
func TestColumnsConcurrentReaders(t *testing.T) {
	tab := newTable(t)
	for i := 0; i < 2000; i++ {
		if err := tab.Insert(types.Row{types.NewInt(int64(i)), types.NewText("n"), types.NewFloat(float64(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	tab.Publish(1)
	const readers = 8
	frames := make([]*colstore.Frame, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			frames[g] = tab.Columns()
		}(g)
	}
	wg.Wait()
	for g, f := range frames {
		if f != frames[0] {
			t.Fatalf("reader %d got a different frame", g)
		}
	}
	if frames[0].Rows() != tab.Len() {
		t.Fatalf("frame rows = %d, want %d", frames[0].Rows(), tab.Len())
	}
}
