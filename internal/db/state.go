package db

import (
	"fmt"
	"sort"
	"strings"

	"resultdb/internal/catalog"
	"resultdb/internal/storage"
)

// dbState is one immutable published version of the whole database: the
// table set (each *storage.Table itself an immutable published version,
// stamped with the seq of the commit that published it) and the commit
// position. Readers pin a state with one atomic load and then execute
// entirely lock-free; writers derive the next state under the writer lock
// and publish it with one atomic store. A state, once published, is never
// mutated.
type dbState struct {
	// tables maps lower-cased names to published table versions.
	tables map[string]*storage.Table
	// seq is the commit sequence number: +1 per published mutation batch.
	seq uint64
	// lsn is the WAL LSN of the last commit included in this state (0 when
	// no commit log is installed; seeded by recovery via SetRecoveredLSN).
	lsn uint64
}

// Snapshot pins one immutable published database state: a consistent set of
// table versions acquired with a single atomic load (O(1); the O(tables)
// copying happens on the write path). A Snapshot implements engine.Source
// and snapshot.Source, so queries, statistics, checkpoints, and \save all
// read from the same frozen world. Snapshots are cheap, never expire, and
// need no release call — an abandoned snapshot is garbage-collected with
// the table versions only it still references.
type Snapshot struct {
	db *Database
	st *dbState
}

// Snapshot pins the newest committed state. Every read entry point of the
// database acquires one and then runs without any database-wide lock:
// readers never block writers, writers never block readers, and no reader
// ever observes a half-applied batch.
func (d *Database) Snapshot() *Snapshot {
	return &Snapshot{db: d, st: d.state.Load()}
}

// Table resolves a table name in this snapshot (engine.Source).
func (s *Snapshot) Table(name string) (*storage.Table, error) {
	if t, ok := s.st.tables[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("db: table %q does not exist", name)
}

// TableNames returns the snapshot's table names (original case), sorted.
func (s *Snapshot) TableNames() []string {
	out := make([]string, 0, len(s.st.tables))
	for _, t := range s.st.tables {
		out = append(out, t.Def.Name)
	}
	sort.Strings(out)
	return out
}

// Seq is the snapshot's commit sequence number: 0 for an empty database,
// +1 per committed mutation batch since.
func (s *Snapshot) Seq() uint64 { return s.st.seq }

// LSN is the WAL position this snapshot covers: the LSN of the last commit
// included in it. 0 when the database has no commit log (or no commit was
// logged yet); recovery seeds it so checkpoints pair the snapshot with the
// exact log position it reflects.
func (s *Snapshot) LSN() uint64 { return s.st.lsn }

// versionOf returns the version ID of a table name in st (0 when the table
// does not exist in it). The result cache keys entries on a snapshot's
// versions, so a reader is only ever served a result computed at exactly
// its snapshot's table versions.
func (st *dbState) versionOf(name string) uint64 {
	if t, ok := st.tables[strings.ToLower(name)]; ok {
		return t.Version()
	}
	return 0
}

// writeTxn accumulates one mutation batch on top of a base state. The table
// map is copied once (O(tables)); mutated tables are replaced by
// copy-on-write drafts (storage.Table.BeginVersion). commit stamps every
// draft with the new seq and publishes the batch atomically; a txn abandoned
// on error leaves the published state — and every concurrent reader —
// untouched.
type writeTxn struct {
	d      *Database
	base   *dbState
	tables map[string]*storage.Table

	drafts  map[string]*storage.Table // unpublished versions begun or created this txn
	creates []*catalog.TableDef       // catalog registrations, applied at commit
	drops   []string                  // catalog removals, applied at commit
}

// newWriteTxn copies the base state's table map. Called with d.mu held.
func (d *Database) newWriteTxn() *writeTxn {
	base := d.state.Load()
	tx := &writeTxn{
		d:      d,
		base:   base,
		tables: make(map[string]*storage.Table, len(base.tables)+1),
		drafts: make(map[string]*storage.Table),
	}
	for k, v := range base.tables {
		tx.tables[k] = v
	}
	return tx
}

// Table resolves a name within the transaction (pending changes included),
// implementing engine.Source for statements that read while mutating
// (CREATE MATERIALIZED VIEW ... AS SELECT).
func (tx *writeTxn) Table(name string) (*storage.Table, error) {
	if t, ok := tx.tables[strings.ToLower(name)]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("db: table %q does not exist", name)
}

// draft returns the transaction's mutable version of name, deriving it from
// the published version on first use.
func (tx *writeTxn) draft(name string) (*storage.Table, error) {
	key := strings.ToLower(name)
	if t, ok := tx.drafts[key]; ok {
		return t, nil
	}
	cur, ok := tx.tables[key]
	if !ok {
		return nil, fmt.Errorf("db: table %q does not exist", name)
	}
	t := cur.BeginVersion()
	tx.drafts[key] = t
	tx.tables[key] = t
	return t, nil
}

// create registers an unpublished table in the transaction: a new empty one
// for CREATE TABLE and materialized views, or a bulk loader's filled one.
func (tx *writeTxn) create(t *storage.Table) error {
	key := strings.ToLower(t.Def.Name)
	if _, ok := tx.tables[key]; ok || tx.d.cat.Has(t.Def.Name) {
		return fmt.Errorf("catalog: table %q already exists", t.Def.Name)
	}
	tx.tables[key] = t
	tx.drafts[key] = t
	tx.creates = append(tx.creates, t.Def)
	return nil
}

// drop removes a table from the transaction.
func (tx *writeTxn) drop(name string) {
	delete(tx.tables, strings.ToLower(name))
	tx.drops = append(tx.drops, name)
}

// commit publishes the transaction as the next database state, stamped with
// the WAL position of its commit record. Called with d.mu held, after the
// batch applied cleanly and (when a commit log is installed) after its log
// append succeeded — so log order is publish order, and a state no reader
// has seen is never ahead of the log. Every draft is stamped with the new
// seq as its version ID before the store: once a reader can see the new
// state, every cached result, statistic and plan verdict keyed on an older
// version of a changed table no longer matches.
func (tx *writeTxn) commit(lsn uint64) {
	d := tx.d
	for _, def := range tx.creates {
		// Validated in create; the registry and the published map move
		// together under the writer lock.
		d.cat.Create(def)
	}
	for _, name := range tx.drops {
		d.cat.Drop(name)
	}
	seq := tx.base.seq + 1
	for _, t := range tx.drafts {
		t.Publish(seq)
	}
	if lsn == 0 {
		lsn = tx.base.lsn
	}
	d.state.Store(&dbState{tables: tx.tables, seq: seq, lsn: lsn})
}

// emptyState returns the state of a freshly created database.
func emptyState() *dbState {
	return &dbState{tables: make(map[string]*storage.Table)}
}
