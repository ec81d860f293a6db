package db

import (
	"errors"
	"strings"
	"testing"
)

// A panic escaping from streaming callbacks (or anything below the session's
// statement path) must surface as a statement error, not crash the process:
// the wire server runs arbitrary client statements on shared goroutines.

func panicTestDB(t *testing.T) *Database {
	t.Helper()
	d := New()
	if _, err := d.ExecScript(`
CREATE TABLE t (id INT PRIMARY KEY, v TEXT);
INSERT INTO t VALUES (1, 'a'), (2, 'b');`); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExecStreamConfinesBeginPanic(t *testing.T) {
	d := panicTestDB(t)
	_, err := d.NewSession().ExecStream("SELECT id, v FROM t",
		func(StreamMeta) error { panic("consumer exploded in begin") },
		func(*ResultSet) error { return nil })
	if err == nil {
		t.Fatal("panicking begin callback returned nil error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("panic surfaced as %q, want an internal-error statement error", err)
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panic surfaced as %q, which does not wrap ErrInternal", err)
	}
	// The database is still usable afterwards.
	if _, err := d.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("database unusable after confined panic: %v", err)
	}
}

func TestExecStreamConfinesEmitPanic(t *testing.T) {
	d := panicTestDB(t)
	_, err := d.NewSession().ExecStream("SELECT id, v FROM t",
		func(StreamMeta) error { return nil },
		func(*ResultSet) error { panic("consumer exploded in emit") })
	if err == nil {
		t.Fatal("panicking emit callback returned nil error")
	}
	if !strings.Contains(err.Error(), "internal error") {
		t.Fatalf("panic surfaced as %q, want an internal-error statement error", err)
	}
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("panic surfaced as %q, which does not wrap ErrInternal", err)
	}
	if _, err := d.Exec("SELECT id FROM t"); err != nil {
		t.Fatalf("database unusable after confined panic: %v", err)
	}
}
