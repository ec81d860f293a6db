package stats

import (
	"strings"
	"sync"

	"resultdb/internal/storage"
)

// Cache lazily builds and caches per-table statistics, keyed by table name
// and the version ID of the published table (storage.Table.Version). A
// published version is immutable, so statistics built for it stay exact for
// as long as it is the version cached under its name. Safe for concurrent
// lock-free readers, which may race to build stats for the same version.
//
// One entry per name holds the newest version seen: a newer version replaces
// it, and a reader still pinning an older version gets freshly built stats
// without displacing the newer entry. An unpublished table (version 0, e.g.
// a write-transaction draft) is never cached. cacheCap bounds the entries
// left behind by dropped names by resetting the map — entries are re-derived
// in one build each.
type Cache struct {
	mu      sync.Mutex
	entries map[string]cacheEntry
}

// cacheCap bounds the number of cached tables (see Cache doc).
const cacheCap = 4096

type cacheEntry struct {
	version uint64
	st      *Table
}

// NewCache returns an empty statistics cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]cacheEntry)}
}

// Of returns statistics for t, building them unless the cache already holds
// them for t's version.
func (c *Cache) Of(t *storage.Table) *Table {
	v := t.Version()
	if v == 0 {
		return FromTable(t)
	}
	name := strings.ToLower(t.Def.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[name]
	if ok && e.version == v {
		return e.st
	}
	st := FromTable(t)
	if !ok || e.version < v {
		if len(c.entries) >= cacheCap {
			c.entries = make(map[string]cacheEntry)
		}
		c.entries[name] = cacheEntry{version: v, st: st}
	}
	return st
}

// Versions returns the version ID cached for each table name (lower-cased).
func (c *Cache) Versions() map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.entries))
	for name, e := range c.entries {
		out[name] = e.version
	}
	return out
}
