package main

import (
	"fmt"

	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
	"resultdb/internal/wire"
)

// layerReps is how often the traced replay repeats the request list.
const layerReps = 3

// layerCommits is how many writer batches mixed-rw's traced replay commits
// in-process, with a checkpoint after every checkpointStride of them. With
// the timed phase's schedule the total stays short of a multiple of
// checkpointEvery, so the final reopen has records to replay.
const (
	layerCommits     = 30
	checkpointStride = 10
)

// layerReport holds what the traced replay measured outside the span
// recorder: the engine's own per-phase trace and the byte counts.
type layerReport struct {
	requests  int // replayed requests
	phaseNS   map[string]int64
	reduceIn  int64 // rows into semi-join, Bloom and fold passes
	reduceOut int64 // rows out of them
	scanned   int64 // rows scanned
	rowsOut   int64 // rows returned
	wallNS    int64 // wall time of the traced executions
	bytesV1   int64 // v1 encoding bytes over all replayed requests
	bytesV2   int64 // v2 encoding bytes
}

// reducePhases are the engine trace phases of semi-join reduction.
var reducePhases = map[string]bool{"bottom-up": true, "top-down": true, "fold": true, "bloom-prefilter": true}

// replayLayers replays the workload's request list in-process through each
// layer's public functions, one span per call. mixed-rw also commits batches
// in-process, building each new cast_info version's column frame and taking
// checkpoints.
func replayLayers(cfg *runConfig, e *env, reqs []Request, wr *writer, rec *recorder, o *outcome) (*layerReport, error) {
	lr := &layerReport{phaseNS: make(map[string]int64)}
	plain := uncachedSession(e.db)
	cached := e.db.NewSession()
	encOpts := wire.EncodeOptions{Version: wire.FormatV2, Parallelism: cached.CoreOptions.Parallelism}
	for rep := 0; rep < layerReps; rep++ {
		for _, r := range reqs {
			id := r.ID()
			sel, err := sqlparse.ParseSelect(r.SQL)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			// The engine's own phase spans come from a separate traced
			// execution, outside the recorder's spans.
			_, tr, err := plain.QueryWithTrace(sel)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			lr.addTrace(tr)
			if cfg.workload.cache {
				if _, err := cached.Query(sel); err != nil { // warm the entry
					return nil, fmt.Errorf("%s: %w", id, err)
				}
			}

			root := rec.open("layers", id, 0)
			rec.timed("sqlparse.parse", id, root, func() { sel, err = sqlparse.ParseSelect(r.SQL) })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			rec.timed("sqlparse.canonical", id, root, func() {
				_ = sqlparse.Canonical(sel)
				_ = sqlparse.Tables(sel)
			})
			var res *db.Result
			rec.timed("db.exec", id, root, func() { res, err = plain.Query(sel) })
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			if cfg.workload.cache {
				rec.timed("cache.hit", id, root, func() { _, err = cached.Query(sel) })
				if err != nil {
					return nil, fmt.Errorf("%s: %w", id, err)
				}
			}
			var v1, v2 []byte
			rec.timed("wire.encode_v1", id, root, func() { v1 = wire.EncodeResultOptions(res, wire.EncodeOptions{Version: wire.FormatV1}) })
			rec.timed("wire.encode", id, root, func() { v2 = wire.EncodeResultOptions(res, encOpts) })
			var dec *db.Result
			rec.timed("wire.decode", id, root, func() { dec, err = wire.DecodeResult(v2) })
			if err != nil {
				return nil, fmt.Errorf("%s: decode: %w", id, err)
			}
			if r.Preserving {
				rec.timed("core.postjoin", id, root, func() { _, err = db.ExecutePostJoinPlan(dec) })
				if err != nil {
					return nil, fmt.Errorf("%s: post-join: %w", id, err)
				}
			}
			rec.close(root)
			lr.requests++
			lr.bytesV1 += int64(len(v1))
			lr.bytesV2 += int64(len(v2))
		}
	}
	if wr == nil {
		return lr, nil
	}
	writes := e.db.NewSession()
	for k := 0; k < layerCommits; k++ {
		sql := wr.next()
		var err error
		rec.timed("db.commit", "write", 0, func() { _, err = writes.Exec(sql) })
		if err != nil {
			return nil, fmt.Errorf("in-process batch %d: %w", k, err)
		}
		o.ackedRows += batchRows
		t, err := e.db.Table("cast_info")
		if err != nil {
			return nil, err
		}
		rec.timed("colstore.frame_build", "write", 0, func() { t.Columns() })
		if (k+1)%checkpointStride == 0 {
			rec.timed("durable.checkpoint", "write", 0, func() { err = e.mgr.Checkpoint() })
			if err != nil {
				return nil, err
			}
		}
	}
	return lr, nil
}

// addTrace accumulates one engine trace: wall time per phase and the row
// counts of scans and reduction passes. Output projection (Decompose) spans
// carry no time; decomposeNS derives it from the wall time.
func (lr *layerReport) addTrace(tr *trace.Trace) {
	lr.scanned += tr.Counters.RowsScanned
	lr.rowsOut += tr.Counters.RowsOut
	lr.wallNS += tr.WallNS
	for _, sp := range tr.Spans {
		ns := sp.DurNS
		if ns == 0 {
			ns = sp.BuildNS + sp.ProbeNS
		}
		lr.phaseNS[sp.Phase] += ns
		if reducePhases[sp.Phase] {
			lr.reduceIn += int64(sp.RowsIn)
			lr.reduceOut += int64(sp.RowsOut)
		}
	}
}

// decomposeNS is the traced executions' time outside scans, joins and
// reduction passes: root selection, Decompose and the output projection.
func (lr *layerReport) decomposeNS() int64 {
	ns := lr.wallNS - lr.phaseNS["scan"] - lr.phaseNS["join"]
	for phase := range reducePhases {
		ns -= lr.phaseNS[phase]
	}
	return ns
}
