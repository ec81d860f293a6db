package cache

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// world stands in for the database that owns version identity: one version
// ID per table (0 = never published), every publish stamping the touched
// tables with the next commit number. Its latest method is the cache's view
// of the newest published versions.
type world struct {
	mu  sync.Mutex
	seq uint64
	ids map[string]uint64
}

func (w *world) latest(table string) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ids[table]
}

// publish commits new versions of the named tables (case-insensitive).
func (w *world) publish(tables ...string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	for _, t := range tables {
		w.ids[strings.ToLower(t)] = w.seq
	}
}

func newCache[V any](budget int64) (*Cache[V], *world) {
	w := &world{ids: make(map[string]uint64)}
	return New[V](budget, w.latest), w
}

var errMiss = errors.New("miss")

// get looks key up at the newest versions without filling on a miss: a
// DoAt whose computation fails, so a miss is counted and nothing admitted.
func get[V any](c *Cache[V], w *world, key string, tables []string) (V, bool) {
	v, hit, err := c.DoAt(key, tables, w.latest, func() (V, int64, error) {
		var zero V
		return zero, 0, errMiss
	})
	return v, hit && err == nil
}

// put admits v as computed at the newest versions.
func put[V any](c *Cache[V], w *world, key string, v V, bytes int64, tables []string) {
	c.PutAt(key, v, bytes, tables, w.latest)
}

// peek reports whether key holds a value at the newest versions, without
// touching counters or LRU order.
func peek[V any](c *Cache[V], w *world, key string, tables []string) bool {
	_, ok := c.PeekAt(key, tables, w.latest)
	return ok
}

func TestGetPutHitMiss(t *testing.T) {
	c, w := newCache[string](1 << 20)
	if _, ok := get(c, w, "k", []string{"T1", "t2"}); ok {
		t.Fatal("empty cache should miss")
	}
	put(c, w, "k", "v", 10, []string{"T1", "t2"})
	v, ok := get(c, w, "k", []string{"T1", "t2"})
	if !ok || v != "v" {
		t.Fatalf("want hit with v, got %q ok=%v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestVersionInvalidation(t *testing.T) {
	c, w := newCache[int](1 << 20)
	put(c, w, "q", 7, 1, []string{"movies", "cast"})

	// Publishing an unrelated table must not invalidate.
	w.publish("other")
	if _, ok := get(c, w, "q", []string{"movies", "cast"}); !ok {
		t.Fatal("publish of unrelated table invalidated entry")
	}

	// Case-insensitive publish of a referenced table invalidates.
	w.publish("MOVIES")
	if _, ok := get(c, w, "q", []string{"movies", "cast"}); ok {
		t.Fatal("stale entry served after publish")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("want 1 invalidation, got %+v", st)
	}
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stale entry not discarded: %+v", st)
	}
}

func TestBumpBetweenPutAndGet(t *testing.T) {
	// A fill that lands after a publish must come back fresh: it records the
	// versions it was computed at, which are the newest ones.
	c, w := newCache[int](1 << 20)
	w.publish("t")
	put(c, w, "q", 1, 1, []string{"t"})
	if _, ok := get(c, w, "q", []string{"t"}); !ok {
		t.Fatal("entry filled after publish should be fresh")
	}
}

func TestCostAwareLRUEviction(t *testing.T) {
	c, w := newCache[int](100)
	put(c, w, "a", 1, 40, []string{"t"})
	put(c, w, "b", 2, 40, []string{"t"})
	// Touch "a" so "b" is the LRU victim.
	if _, ok := get(c, w, "a", []string{"t"}); !ok {
		t.Fatal("a should be present")
	}
	put(c, w, "c", 3, 40, []string{"t"})
	if peek(c, w, "b", []string{"t"}) {
		t.Fatal("LRU entry b should have been evicted")
	}
	if !peek(c, w, "a", []string{"t"}) {
		t.Fatal("recently used entry a should survive")
	}
	if !peek(c, w, "c", []string{"t"}) {
		t.Fatal("new entry c should be admitted")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 80 || st.Entries != 2 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestOversizedNotAdmitted(t *testing.T) {
	c, w := newCache[int](100)
	put(c, w, "small", 1, 10, []string{"t"})
	put(c, w, "huge", 2, 101, []string{"t"})
	if peek(c, w, "huge", []string{"t"}) {
		t.Fatal("oversized entry admitted")
	}
	if !peek(c, w, "small", []string{"t"}) {
		t.Fatal("oversized put evicted unrelated entries")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("oversized put should not evict, got %+v", st)
	}
}

func TestSetBudgetShrinkEvicts(t *testing.T) {
	c, w := newCache[int](100)
	put(c, w, "a", 1, 40, []string{"t"})
	put(c, w, "b", 2, 40, []string{"t"})
	c.SetBudget(50)
	st := c.Stats()
	if st.Bytes > 50 || st.Entries != 1 {
		t.Fatalf("shrink did not evict: %+v", st)
	}
}

func TestClear(t *testing.T) {
	c, w := newCache[int](100)
	put(c, w, "a", 1, 10, []string{"t"})
	c.Clear()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("clear left entries: %+v", st)
	}
	// Fills after a clear are admitted and served.
	w.publish("t")
	put(c, w, "a", 1, 10, []string{"t"})
	if _, ok := get(c, w, "a", []string{"t"}); !ok {
		t.Fatal("post-clear put should be fresh")
	}
}

func TestDoComputesOnceAndCaches(t *testing.T) {
	c, w := newCache[string](1 << 20)
	calls := 0
	compute := func() (string, int64, error) {
		calls++
		return "r", 5, nil
	}
	v, hit, err := c.DoAt("k", []string{"t"}, w.latest, compute)
	if err != nil || hit || v != "r" {
		t.Fatalf("first Do: v=%q hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.DoAt("k", []string{"t"}, w.latest, compute)
	if err != nil || !hit || v != "r" {
		t.Fatalf("second Do: v=%q hit=%v err=%v", v, hit, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c, w := newCache[string](1 << 20)
	boom := errors.New("boom")
	_, _, err := c.DoAt("k", []string{"t"}, w.latest, func() (string, int64, error) { return "", 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error result cached: %+v", st)
	}
	// Next Do recomputes.
	v, hit, err := c.DoAt("k", []string{"t"}, w.latest, func() (string, int64, error) { return "ok", 1, nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("recompute after error: v=%q hit=%v err=%v", v, hit, err)
	}
}

func TestSingleFlightCollapsesThunderingHerd(t *testing.T) {
	c, w := newCache[int](1 << 20)
	const n = 32
	var calls atomic.Int64
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.DoAt("k", []string{"t"}, w.latest, func() (int, int64, error) {
				calls.Add(1)
				// Hold the flight open until all other callers have joined
				// it, so every one of them is provably collapsed (followers
				// bump Collapsed before blocking on the flight).
				for c.Stats().Collapsed < n-1 {
					runtime.Gosched()
				}
				return 42, 1, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("thundering herd executed %d times, want 1", got)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Collapsed != n-1 {
		t.Fatalf("want 1 miss / %d collapsed, got %+v", n-1, st)
	}
}

func TestConcurrentMixedUse(t *testing.T) {
	// Hammer the cache from many goroutines mixing fills, lookups,
	// publishes and Stats; the race detector (verify.sh runs this package under -race)
	// is the assertion.
	c, w := newCache[int](1 << 12)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("q%d", i%7)
				switch i % 5 {
				case 0:
					w.publish(fmt.Sprintf("t%d", i%3))
				case 1:
					get(c, w, key, []string{"t0", "t1"})
				case 2:
					c.Stats()
				default:
					c.DoAt(key, []string{"t0", "t1"}, w.latest, func() (int, int64, error) {
						return g*1000 + i, 64, nil
					})
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNormTables(t *testing.T) {
	got := normTables([]string{"B", "a", "b", "A", "c"})
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}
