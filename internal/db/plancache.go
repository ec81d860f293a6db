package db

import (
	"resultdb/internal/engine"
	"resultdb/internal/sqlparse"
)

// The plan-verdict cache memoizes one bit per (query, table versions):
// did cost-based reduction planning produce a plan operationally different
// from the heuristic's? Statistics make big queries faster by switching
// roots, reordering passes, and injecting pre-filters — but on tiny queries
// whose cost-based plan comes out identical to the heuristic plan, the
// planning work itself is pure overhead paid on every execution. Once a
// full cost-based run reports core.Stats.PlanDiverged == false, re-running
// the same statement against unchanged tables skips the statistics
// machinery and takes the (provably identical) heuristic path directly.
// Any DML/DDL on an involved table publishes a new version ID and
// invalidates the verdict, so the next execution re-plans with fresh
// statistics. A verdict involving an unpublished table (version 0, a write
// transaction's draft) is never recorded.
//
// Traced runs (EXPLAIN ANALYZE and friends) bypass the cache in both
// directions: they always plan with statistics so the trace shows the
// cost-based decisions, and they record nothing.

// planVerdictCap bounds the verdict map. Verdicts are one bool plus a few
// slices, so the bound exists only to stop unbounded growth under
// generated-query workloads; overflow simply resets the map (verdicts are
// re-derived in one execution each).
const planVerdictCap = 512

// planVerdict records the version IDs of the query's relations (in
// spec.Rels order) a verdict was planned against. The statement text fixes
// the table names, and a published version is immutable, so equal IDs mean
// equal statistics.
type planVerdict struct {
	versions []uint64
	diverged bool
}

// planKey returns the verdict-cache key for sel executed in mode: the raw
// source text the parser recorded (zero cost), else the rendered SQL. The
// same statement in RDB vs RDBRP mode has different outputs and hence a
// different early-stop surface, so the two must not share a verdict.
func planKey(sel *sqlparse.Select, mode Mode) string {
	key := sel.Src
	if key == "" {
		key = sel.SQL()
	}
	if mode == ModeRDBRP {
		key += "\x00rp"
	}
	return key
}

// planConfirmedHeuristic reports whether a previous cost-based execution of
// key recorded a non-diverged plan that is still valid for the table
// versions src resolves (the reader's snapshot, or a write transaction).
func (d *Database) planConfirmedHeuristic(src engine.Source, key string, spec *engine.SPJSpec) bool {
	d.planMu.Lock()
	v, ok := d.planVerdicts[key]
	d.planMu.Unlock()
	if !ok || v.diverged || len(v.versions) != len(spec.Rels) {
		return false
	}
	for i, r := range spec.Rels {
		t, err := src.Table(r.Table)
		if err != nil || t.Version() != v.versions[i] {
			return false
		}
	}
	return true
}

// recordPlanVerdict stores the divergence verdict of a completed cost-based
// execution, keyed on the version IDs of the tables it planned against.
func (d *Database) recordPlanVerdict(src engine.Source, key string, spec *engine.SPJSpec, diverged bool) {
	v := planVerdict{versions: make([]uint64, len(spec.Rels)), diverged: diverged}
	for i, r := range spec.Rels {
		t, err := src.Table(r.Table)
		if err != nil || t.Version() == 0 {
			// A vanished or unpublished table has no version to key on.
			return
		}
		v.versions[i] = t.Version()
	}
	d.planMu.Lock()
	if d.planVerdicts == nil || len(d.planVerdicts) >= planVerdictCap {
		d.planVerdicts = make(map[string]planVerdict, 64)
	}
	d.planVerdicts[key] = v
	d.planMu.Unlock()
}
