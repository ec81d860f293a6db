// Package cache is the semantic query-result cache of the reproduction: a
// zero-dependency (stdlib-only), generic, byte-budgeted LRU keyed by a
// normalized statement fingerprint and guarded by the version IDs of the
// tables the statement reads.
//
// The design mirrors the paper's own argument one level up: SELECT RESULTDB
// avoids recomputing and re-shipping redundant denormalized data *within* a
// query; the cache avoids recomputing the same subdatabase *across* queries.
// A server handling the ROADMAP's north-star traffic sees the same JOB-style
// statements over and over — serving a previously computed multi-relation
// result is the single biggest latency and throughput lever available.
//
// Correctness model:
//
//   - Keys are semantic fingerprints produced by the caller (internal/db uses
//     the canonicalized AST rendering from internal/sqlparse), so whitespace,
//     literal formatting, and identifier case do not fragment the cache.
//   - The caller owns version identity: every published table version carries
//     one ID (internal/db uses the commit seq that published it), the IDs of
//     a name only grow, and a table that does not exist has ID 0. The cache
//     keeps no version counters of its own.
//   - Every entry records the base tables the statement reads and the exact
//     version vector it was computed at. Every lookup names the caller's
//     snapshot versions: an entry is served only at exactly that vector, and
//     an entry older than it is discarded on the spot and counted as an
//     invalidation (O(#tables), a handful of integers). Invalidation is lazy,
//     so the write path does no cache bookkeeping at all.
//   - A fill is admitted only if the newest published versions of its tables
//     (the latest function given to New) still equal the versions it was
//     computed at. A fill that raced a writer is returned to its caller — it
//     is correct for that snapshot — but never cached, so it can neither
//     shadow nor be revived as a newer state.
//   - Admission and eviction are cost-aware: each entry carries its measured
//     wire-encoded byte size, the cache holds a configurable byte budget, and
//     the least-recently-used entries are evicted until the new entry fits.
//     Entries larger than the whole budget are simply not admitted.
//   - Concurrent identical misses on the same snapshot versions are collapsed
//     by single-flight: the first caller computes, everyone else waits for
//     that one execution and shares the value. A thundering herd of N
//     identical queries costs one execution.
//
// The cache stores opaque values (instantiate Cache[V] with the result type);
// callers must treat returned values as immutable shared snapshots.
package cache

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Stats is a point-in-time snapshot of the cache's counters and occupancy.
type Stats struct {
	// Hits counts lookups served from a live entry.
	Hits uint64
	// Misses counts lookups that found no entry (or a stale one) and led to
	// a computation (single-flight followers count as hits-by-collapse, not
	// misses).
	Misses uint64
	// Invalidations counts lookups that found an entry whose table versions
	// had moved on; the entry is discarded at that moment (lazy eviction).
	Invalidations uint64
	// Evictions counts entries evicted to make room under the byte budget.
	Evictions uint64
	// Collapsed counts callers that joined an in-flight identical
	// computation instead of executing it themselves (single-flight).
	Collapsed uint64

	// Entries is the current number of live entries.
	Entries int
	// Bytes is the summed cost of all live entries.
	Bytes int64
	// Budget is the configured byte budget (0 = unlimited admission is NOT
	// supported; a zero budget admits nothing).
	Budget int64
}

// entry is one cached value with its invalidation guard.
type entry struct {
	key    string
	value  any
	bytes  int64
	tables []string // lowercased, sorted, deduplicated
	vers   []uint64 // table version IDs at fill time, parallel to tables
	elem   *list.Element
}

// flight is one in-progress computation other callers can wait on.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a versioned, byte-budgeted, single-flight LRU. All methods are
// safe for concurrent use. The zero value is not usable; construct with New.
type Cache[V any] struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	entries map[string]*entry
	lru     *list.List // front = most recently used
	latest  func(table string) uint64
	flights map[string]*flight[V]

	hits          uint64
	misses        uint64
	invalidations uint64
	evictions     uint64
	collapsed     uint64
}

// New returns an empty cache with the given byte budget. latest reports the
// version ID of the newest published version of a table (lower-cased name,
// 0 if absent); the cache calls it, under its own lock, to admit fills.
func New[V any](budget int64, latest func(table string) uint64) *Cache[V] {
	return &Cache[V]{
		budget:  budget,
		entries: make(map[string]*entry),
		lru:     list.New(),
		latest:  latest,
		flights: make(map[string]*flight[V]),
	}
}

// SetBudget changes the byte budget, evicting LRU entries if the cache now
// overflows.
func (c *Cache[V]) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictToFitLocked(0)
}

// Budget returns the configured byte budget.
func (c *Cache[V]) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// normTables lowercases, sorts and deduplicates a table list so version
// checks are order-insensitive and case-insensitive (matching the engine's
// case-insensitive name resolution).
func normTables(tables []string) []string {
	out := make([]string, 0, len(tables))
	for _, t := range tables {
		out = append(out, strings.ToLower(t))
	}
	sort.Strings(out)
	j := 0
	for i, t := range out {
		if i == 0 || out[j-1] != t {
			out[j] = t
			j++
		}
	}
	return out[:j]
}

// Clear drops every entry.
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[string]*entry)
	c.lru.Init()
	c.bytes = 0
}

// removeLocked drops e from the map, the LRU list, and the byte accounting.
func (c *Cache[V]) removeLocked(e *entry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
}

// lookupLocked returns the entry for key if it was filled at exactly the
// normalized tables norm and versions vers. An entry filled at an older
// state is discarded and counted as an invalidation; one filled at a newer
// state (the caller pinned an older snapshot) is left in place. Does not
// touch hit/miss counters or LRU order.
func (c *Cache[V]) lookupLocked(key string, norm []string, vers []uint64) *entry {
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	if matchesAt(e, norm, vers) {
		return e
	}
	if olderThan(e, norm, vers) {
		c.invalidations++
		c.removeLocked(e)
	}
	return nil
}

// putLocked admits a value computed at versions vers of the normalized
// tables norm. Oversized values (bytes > budget) are not admitted; otherwise
// LRU entries are evicted until the value fits. A racing entry under the
// same key is replaced.
func (c *Cache[V]) putLocked(key string, v V, bytes int64, norm []string, vers []uint64) {
	if bytes > c.budget {
		return
	}
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	c.evictToFitLocked(bytes)
	e := &entry{key: key, value: v, bytes: bytes, tables: norm, vers: vers}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.bytes += bytes
}

// evictToFitLocked evicts least-recently-used entries until incoming more
// bytes fit under the budget.
func (c *Cache[V]) evictToFitLocked(incoming int64) {
	for c.bytes+incoming > c.budget {
		back := c.lru.Back()
		if back == nil {
			return
		}
		c.removeLocked(back.Value.(*entry))
		c.evictions++
	}
}

// admissibleLocked reports whether versions vers of the normalized tables
// norm are still the newest published ones, i.e. no writer published past
// the caller's snapshot while it computed.
func (c *Cache[V]) admissibleLocked(norm []string, vers []uint64) bool {
	for i, t := range norm {
		if c.latest(t) != vers[i] {
			return false
		}
	}
	return true
}

// versionsAt captures verOf over the normalized table list.
func versionsAt(norm []string, verOf func(string) uint64) []uint64 {
	vers := make([]uint64, len(norm))
	for i, t := range norm {
		vers[i] = verOf(t)
	}
	return vers
}

// flightKeyAt builds the single-flight key for a computation pinned at a
// version vector: two identical statements on different snapshots must NOT
// collapse into one execution (they could legitimately need different
// results), so the fingerprint is part of the key.
func flightKeyAt(key string, vers []uint64) string {
	var b strings.Builder
	b.Grow(len(key) + 12*len(vers))
	b.WriteString(key)
	for _, v := range vers {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(v, 36))
	}
	return b.String()
}

// matchesAt reports whether entry e was filled at exactly the given
// normalized tables and versions.
func matchesAt(e *entry, norm []string, vers []uint64) bool {
	if len(e.tables) != len(norm) {
		return false
	}
	for i, t := range e.tables {
		if t != norm[i] || e.vers[i] != vers[i] {
			return false
		}
	}
	return true
}

// olderThan reports whether e (which does not match vers) was filled at an
// older state than the one vers describes: one of its tables has since
// published a newer version or been dropped (ID 0).
func olderThan(e *entry, norm []string, vers []uint64) bool {
	if len(e.tables) != len(norm) {
		return true
	}
	for i, t := range e.tables {
		if t != norm[i] || e.vers[i] < vers[i] || vers[i] == 0 && e.vers[i] != 0 {
			return true
		}
	}
	return false
}

// PeekAt reports whether key holds a value filled at exactly the versions
// verOf captures (the caller's snapshot), without counting a hit or a miss
// and without touching LRU order.
func (c *Cache[V]) PeekAt(key string, tables []string, verOf func(string) uint64) (V, bool) {
	norm := normTables(tables)
	vers := versionsAt(norm, verOf)
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && matchesAt(e, norm, vers) {
		return e.value.(V), true
	}
	var zero V
	return zero, false
}

// PutAt admits a value computed against the versions verOf captures — but
// only if those versions are still the newest published ones, i.e. no writer
// published past the caller's snapshot while the value was computed. A stale
// fill is silently dropped: it is correct for its snapshot but must not
// shadow (or be revived as) the newer state. Oversized values are not
// admitted; otherwise LRU entries are evicted until the value fits.
func (c *Cache[V]) PutAt(key string, v V, bytes int64, tables []string, verOf func(string) uint64) {
	norm := normTables(tables)
	vers := versionsAt(norm, verOf)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.admissibleLocked(norm, vers) {
		c.putLocked(key, v, bytes, norm, vers)
	}
}

// DoAt is the snapshot-pinned single-flight read-through. The caller's
// computation runs against a pinned snapshot whose per-table versions verOf
// reports. DoAt serves a cached value (hit=true) only when it was filled at
// exactly those versions; it collapses concurrent identical misses
// (hit=true, counted as Collapsed) only when they pinned the same versions;
// otherwise it runs compute and admits the fill with its reported byte cost
// only when the versions are still the newest published ones at fill time (a
// fill that raced a writer is returned to its caller but not cached). Errors
// are returned to every waiter and never cached. compute runs without any
// cache lock held and needs no external synchronization — the snapshot it
// reads is immutable.
func (c *Cache[V]) DoAt(key string, tables []string, verOf func(string) uint64, compute func() (V, int64, error)) (V, bool, error) {
	norm := normTables(tables)
	vers := versionsAt(norm, verOf)
	fkey := flightKeyAt(key, vers)
	c.mu.Lock()
	if e := c.lookupLocked(key, norm, vers); e != nil {
		c.hits++
		c.lru.MoveToFront(e.elem)
		v := e.value.(V)
		c.mu.Unlock()
		return v, true, nil
	}
	if f, ok := c.flights[fkey]; ok {
		c.collapsed++
		c.mu.Unlock()
		<-f.done
		return f.val, true, f.err
	}
	c.misses++
	f := &flight[V]{done: make(chan struct{})}
	c.flights[fkey] = f
	c.mu.Unlock()

	v, bytes, err := compute()
	f.val, f.err = v, err

	c.mu.Lock()
	delete(c.flights, fkey)
	if err == nil && c.admissibleLocked(norm, vers) {
		c.putLocked(key, v, bytes, norm, vers)
	}
	c.mu.Unlock()
	close(f.done)
	return v, false, err
}

// Stats snapshots the counters and occupancy.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
		Evictions:     c.evictions,
		Collapsed:     c.collapsed,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		Budget:        c.budget,
	}
}
