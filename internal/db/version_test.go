package db

import (
	"testing"

	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
	"resultdb/internal/storage"
)

// Every published table version carries one ID, the commit seq that
// published it; the result cache, the statistics cache and the plan-verdict
// cache all key on it. These tests pin that single notion of identity.

const versionJoin = "SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id"

// versionTestDB is cacheTestDB with cost-based planning on, so one query
// exercises all three version-keyed caches.
func versionTestDB(t *testing.T) *Database {
	t.Helper()
	d := cacheTestDB(t)
	d.CoreOptions.CostBased = true
	return d
}

func mustTable(t *testing.T, src engine.Source, name string) *storage.Table {
	t.Helper()
	tab, err := src.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func mustExec(t *testing.T, d *Database, sql string) *Result {
	t.Helper()
	res, err := d.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// verdictSpec analyzes sql against the newest state, for probing the plan
// verdict recorded under its statement text.
func verdictSpec(t *testing.T, d *Database, sql string) *engine.SPJSpec {
	t.Helper()
	sel, err := sqlparse.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := engine.AnalyzeSPJ(stripResultDB(sel), d.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestVersionIDsIncreasePerPublish(t *testing.T) {
	d := New()
	mustExec(t, d, "CREATE TABLE t (id INTEGER)")
	prev := mustTable(t, d, "t").Version()
	if prev == 0 || prev != d.Snapshot().Seq() {
		t.Fatalf("created table has version %d, want the publishing seq %d", prev, d.Snapshot().Seq())
	}
	for i := 0; i < 5; i++ {
		mustExec(t, d, "INSERT INTO t VALUES (1)")
		v := mustTable(t, d, "t").Version()
		if v <= prev || v != d.Snapshot().Seq() {
			t.Fatalf("publish %d: version %d after %d, want strictly greater and equal to seq %d", i, v, prev, d.Snapshot().Seq())
		}
		prev = v
	}
}

func TestVersionUntouchedTableKeepsID(t *testing.T) {
	d := cacheTestDB(t)
	roles := mustTable(t, d, "roles")
	mustExec(t, d, "INSERT INTO movies VALUES (4, 'Thief', 1981)")
	if got := mustTable(t, d, "roles"); got != roles || got.Version() != roles.Version() {
		t.Fatalf("commit to movies changed roles: version %d -> %d", roles.Version(), got.Version())
	}
	if mustTable(t, d, "movies").Version() <= roles.Version() {
		t.Fatal("the touched table did not get a newer version")
	}
}

func TestVersionDropCreateMissesEveryCache(t *testing.T) {
	d := versionTestDB(t)
	first := mustExec(t, d, versionJoin)
	old := mustTable(t, d, "movies").Version()
	spec := verdictSpec(t, d, versionJoin)
	if !d.planConfirmedHeuristic(d.Snapshot(), versionJoin, spec) {
		t.Fatal("setup: no reusable non-diverged verdict recorded for the join")
	}
	if got := d.statsCache.Versions()["movies"]; got != old {
		t.Fatalf("setup: stats cached at version %d, want %d", got, old)
	}

	// Re-create movies with identical schema and rows.
	if _, err := d.ExecScript(`
DROP TABLE movies;
CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, year INT);
INSERT INTO movies VALUES (1, 'Heat', 1995), (2, 'Ronin', 1998), (3, 'Blow Out', 1981);`); err != nil {
		t.Fatal(err)
	}
	reborn := mustTable(t, d, "movies").Version()
	if reborn <= old {
		t.Fatalf("re-created table has version %d, want a new ID above %d", reborn, old)
	}
	if d.planConfirmedHeuristic(d.Snapshot(), versionJoin, spec) {
		t.Fatal("plan verdict survived DROP+CREATE")
	}

	before := d.CacheStats()
	second := mustExec(t, d, versionJoin)
	after := d.CacheStats()
	if after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Fatalf("result cache did not miss after DROP+CREATE: %+v -> %+v", before, after)
	}
	if second == first || resultFingerprint(second) != resultFingerprint(first) {
		t.Fatal("identical re-created table must recompute the identical result")
	}
	if got := d.statsCache.Versions()["movies"]; got != reborn {
		t.Fatalf("stats cached at version %d after DROP+CREATE, want %d", got, reborn)
	}
	if !d.planConfirmedHeuristic(d.Snapshot(), versionJoin, spec) {
		t.Fatal("verdict not re-recorded at the new version")
	}
}

// A statement reading a write transaction's unpublished draft under
// cost-based planning (the shape of CREATE MATERIALIZED VIEW) must neither
// cache statistics nor record a verdict for version 0.
func TestVersionUnpublishedDraftIsNeverCached(t *testing.T) {
	d := versionTestDB(t)
	sel, err := sqlparse.ParseSelect(versionJoin)
	if err != nil {
		t.Fatal(err)
	}
	sel.Src = "draft read"
	d.withWriter(func() {
		tx := d.newWriteTxn()
		draft, err := tx.draft("movies")
		if err != nil {
			t.Fatal(err)
		}
		if err := draft.Insert(mustTable(t, d, "movies").Rows[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := d.queryResultDBAt(d.txnCtx(tx), sel, ModeRDB, nil, nil); err != nil {
			t.Fatal(err)
		}
		// tx is abandoned: nothing publishes.
	})
	noZeroVersions(t, d)
	d.planMu.Lock()
	_, recorded := d.planVerdicts[sel.Src]
	d.planMu.Unlock()
	if recorded {
		t.Fatal("verdict recorded for a plan over an unpublished draft")
	}

	mustExec(t, d, "CREATE MATERIALIZED VIEW mv AS SELECT RESULTDB m.title, r.actor FROM movies m, roles r WHERE m.id = r.movie_id")
	noZeroVersions(t, d)
}

func noZeroVersions(t *testing.T, d *Database) {
	t.Helper()
	for name, v := range d.statsCache.Versions() {
		if v == 0 {
			t.Fatalf("stats cached for unpublished table %q", name)
		}
	}
	d.planMu.Lock()
	defer d.planMu.Unlock()
	for key, v := range d.planVerdicts {
		for _, id := range v.versions {
			if id == 0 {
				t.Fatalf("verdict %q recorded against an unpublished table", key)
			}
		}
	}
}

func TestPlanVerdictReusedUntilInsert(t *testing.T) {
	d := versionTestDB(t)
	d.DisableCache() // every execution plans
	spec := verdictSpec(t, d, versionJoin)
	if d.planConfirmedHeuristic(d.Snapshot(), versionJoin, spec) {
		t.Fatal("verdict present before the first execution")
	}
	want := resultFingerprint(mustExec(t, d, versionJoin))
	if !d.planConfirmedHeuristic(d.Snapshot(), versionJoin, spec) {
		t.Fatal("first cost-based execution left no reusable non-diverged verdict")
	}
	// The second run takes the confirmed heuristic plan: same bytes, and
	// the verdict (keyed on unchanged versions) still applies.
	if got := resultFingerprint(mustExec(t, d, versionJoin)); got != want {
		t.Fatal("verdict-reusing execution changed the result")
	}
	if !d.planConfirmedHeuristic(d.Snapshot(), versionJoin, spec) {
		t.Fatal("verdict dropped without any change to the tables")
	}

	mustExec(t, d, "INSERT INTO roles VALUES (13, 3, 'Travolta')")
	if d.planConfirmedHeuristic(d.Snapshot(), versionJoin, spec) {
		t.Fatal("verdict still applies after an INSERT into a referenced table")
	}
	// An old snapshot's versions no longer match either once the next
	// execution re-records at the new ones.
	old := d.Snapshot()
	mustExec(t, d, "INSERT INTO movies VALUES (4, 'Thief', 1981)")
	mustExec(t, d, versionJoin)
	if d.planConfirmedHeuristic(old, versionJoin, spec) {
		t.Fatal("verdict recorded at new versions applies to an older snapshot")
	}
	if !d.planConfirmedHeuristic(d.Snapshot(), versionJoin, spec) {
		t.Fatal("verdict not re-recorded after the INSERT")
	}
}

// The buffered and the streamed path parse the same text into a Select with
// the same Src, so they share one plan verdict.
func TestPlanVerdictSharedByBufferedAndStreamed(t *testing.T) {
	d := versionTestDB(t)
	d.DisableCache() // every execution plans
	mustExec(t, d, versionJoin)
	sess := d.NewSession()
	for i := 0; i < 3; i++ {
		if _, err := sess.ExecStream(versionJoin,
			func(StreamMeta) error { return nil },
			func(*ResultSet) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	d.planMu.Lock()
	n := len(d.planVerdicts)
	d.planMu.Unlock()
	if n != 1 {
		t.Fatalf("%d plan verdicts after buffered and streamed runs of one statement, want 1", n)
	}
	if !d.planConfirmedHeuristic(d.Snapshot(), versionJoin, verdictSpec(t, d, versionJoin)) {
		t.Fatal("no verdict recorded under the statement text")
	}
}
