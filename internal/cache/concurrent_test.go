package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The MVCC regression the *At surface exists for: a reader pins a snapshot,
// misses, and starts computing; a writer publishes a new table version
// before the fill lands. The fill is correct for the reader and must
// be returned to it — but it must NOT be admitted, or a later reader on the
// new version would be served the stale result.
func TestDoAtStaleFillReturnedNotAdmitted(t *testing.T) {
	c, w := newCache[string](1 << 20)
	snapVer := func(string) uint64 { return 0 } // the reader's pinned versions

	started := make(chan struct{})
	release := make(chan struct{})
	type out struct {
		v   string
		hit bool
		err error
	}
	done := make(chan out, 1)
	go func() {
		v, hit, err := c.DoAt("q", []string{"t"}, snapVer, func() (string, int64, error) {
			close(started)
			<-release
			return "old", 8, nil
		})
		done <- out{v, hit, err}
	}()

	<-started
	w.publish("t") // the writer publishes mid-compute
	close(release)

	got := <-done
	if got.err != nil || got.hit || got.v != "old" {
		t.Fatalf("racing reader got (%q, hit=%v, err=%v), want its own fill", got.v, got.hit, got.err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale fill was admitted: %+v", st)
	}
	// The stale fill must not be visible to any version of the world.
	if _, ok := get(c, w, "q", []string{"t"}); ok {
		t.Fatal("stale fill was admitted")
	}
	if _, ok := c.PeekAt("q", []string{"t"}, snapVer); ok {
		t.Fatal("stale fill visible at the old snapshot")
	}
	liveVer := func(string) uint64 { return 1 }
	if _, ok := c.PeekAt("q", []string{"t"}, liveVer); ok {
		t.Fatal("stale fill visible at the new version")
	}
	// A reader on the new version recomputes — and that fill IS admitted.
	v, hit, err := c.DoAt("q", []string{"t"}, liveVer, func() (string, int64, error) {
		return "new", 8, nil
	})
	if err != nil || hit || v != "new" {
		t.Fatalf("post-publish DoAt = (%q, %v, %v)", v, hit, err)
	}
	if v, ok := c.PeekAt("q", []string{"t"}, liveVer); !ok || v != "new" {
		t.Fatal("current-version fill not admitted")
	}
	// Two real computations (the stale one and the recompute) plus the Get
	// probe above; exactly one entry survives.
	st := c.Stats()
	if st.Entries != 1 || st.Misses != 3 {
		t.Fatalf("stats = %+v, want 1 entry and 3 misses", st)
	}
}

// Identical statements pinned at the same snapshot single-flight: one
// computation, everyone shares it.
func TestDoAtCollapsesSameSnapshot(t *testing.T) {
	c, _ := newCache[string](1 << 20)
	verOf := func(string) uint64 { return 3 }
	var computes atomic.Int64
	gate := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	results := make([]string, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.DoAt("q", []string{"t"}, verOf, func() (string, int64, error) {
				computes.Add(1)
				<-gate
				return "shared", 8, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let callers pile onto the flight, then release the one computation.
	for c.Stats().Collapsed < callers-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations, want 1 (single-flight)", n)
	}
	for i, v := range results {
		if v != "shared" {
			t.Fatalf("caller %d got %q", i, v)
		}
	}
}

// Identical statements pinned at DIFFERENT snapshots must not collapse: they
// can legitimately require different results.
func TestDoAtDistinctSnapshotsDoNotCollapse(t *testing.T) {
	c, w := newCache[string](1 << 20)
	w.publish("t") // the new snapshot's version is the newest
	oldVer := func(string) uint64 { return 0 }
	newVer := func(string) uint64 { return 1 }

	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, err := c.DoAt("q", []string{"t"}, oldVer, func() (string, int64, error) {
			close(started)
			<-release
			return "old-world", 8, nil
		})
		if err != nil || v != "old-world" {
			t.Errorf("old-snapshot caller: (%q, %v)", v, err)
		}
	}()

	<-started
	// With the old-snapshot flight still in progress, a new-snapshot caller
	// must run its own computation rather than wait and share stale bytes.
	v, hit, err := c.DoAt("q", []string{"t"}, newVer, func() (string, int64, error) {
		return "new-world", 8, nil
	})
	if err != nil || hit || v != "new-world" {
		t.Fatalf("new-snapshot caller joined the old flight: (%q, hit=%v, err=%v)", v, hit, err)
	}
	close(release)
	wg.Wait()
	if got := c.Stats().Collapsed; got != 0 {
		t.Fatalf("Collapsed = %d, want 0", got)
	}
}

// A reader pinning an older snapshot misses on an entry filled at a newer
// state and leaves it in place; a reader on a state newer than the entry
// discards it as stale. A dropped table (version 0) makes the entry stale
// too.
func TestDoAtOlderReaderKeepsNewerEntry(t *testing.T) {
	c, w := newCache[string](1 << 20)
	w.publish("t")
	old := func(string) uint64 { return 1 }
	w.publish("t")
	cur := func(string) uint64 { return 2 }
	if _, hit, _ := c.DoAt("q", []string{"t"}, cur, func() (string, int64, error) { return "v2", 8, nil }); hit {
		t.Fatal("first fill reported a hit")
	}
	if v, hit, _ := c.DoAt("q", []string{"t"}, old, func() (string, int64, error) { return "v1", 8, nil }); hit || v != "v1" {
		t.Fatalf("old-snapshot reader got (%q, hit=%v), want its own computation", v, hit)
	}
	if v, ok := c.PeekAt("q", []string{"t"}, cur); !ok || v != "v2" {
		t.Fatal("old-snapshot reader displaced the newer entry")
	}
	if st := c.Stats(); st.Invalidations != 0 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the newer entry kept and no invalidation", st)
	}

	w.publish("t")
	newer := func(string) uint64 { return 3 }
	if _, ok := get(c, w, "q", []string{"t"}); ok {
		t.Fatal("entry served after a newer version was published")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want the stale entry discarded", st)
	}
	c.PutAt("q", "v3", 8, []string{"t"}, newer)
	dropped := func(string) uint64 { return 0 }
	if _, hit, _ := c.DoAt("q", []string{"t"}, dropped, func() (string, int64, error) { return "", 0, errMiss }); hit {
		t.Fatal("entry served for a dropped table")
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Entries != 0 {
		t.Fatalf("stats = %+v, want the entry of a dropped table discarded", st)
	}
}
