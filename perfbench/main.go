// Command perfbench is resultdb's end-to-end benchmark. Each request runs as
// a user runs it: a wire.Dial client (v2, streaming, CRC) talks over
// loopback TCP to an in-process wire.Server on a database loaded with the
// JOB workload at the resultdbd default scale, and the time stops when the
// client holds the decoded result (after the post-join for PRESERVING
// requests). See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload job-cold --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// reports the per-layer metrics and writes the spans of the traced replay
// under .bench_build/perfbench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: job-cold | job-hot | mixed-rw")
		seed    = flag.Int64("seed", 1, "seed of the request lists and written rows")
		seconds = flag.Int("seconds", 12, "length of the timed phase")
		traced  = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for spans and data directories")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload job-cold|job-hot|mixed-rw, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := &runConfig{workload: w, seed: *seed, seconds: *seconds, trace: *traced == 1, outDir: *outDir}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta := metadata(cfg, o)
	if cfg.trace {
		path := fmt.Sprintf("%s/spans-%s-seed%d.jsonl", cfg.outDir, w.name, cfg.seed)
		if err := writeSpans(path, o.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		meta["spans_file"] = path
		meta["self_ms_by_span"], meta["self_ms_by_layer"] = selfSummary(o.spans)
	}
	if o.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", o.firstErr)
		meta["first_failure"] = o.firstErr.Error()
	}
	printJSON(map[string]any{"meta": meta})

	var metrics map[string]metric
	if cfg.trace {
		metrics = layerMetrics(cfg, o)
	} else {
		metrics = endToEndMetrics(o)
	}
	correct := !o.mismatch
	printJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.attempted, o.failed, metrics})
	if !correct || o.failed > 0 {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only maps of numbers and strings are printed
	}
	fmt.Println(string(b))
}

// readLatencies returns the sorted latencies (ms) of the untraced or traced
// reads, the same reads on the modelled 100 Mbps link, and their bytes.
func readLatencies(o *outcome, traced bool) (lat, link []float64, bytes int) {
	for _, s := range o.reads {
		if s.traced != traced {
			continue
		}
		lat = append(lat, ms(s.lat))
		link = append(link, ms(s.lat+linkTime(s.bytes)))
		bytes += s.bytes
	}
	return sortedCopy(lat), sortedCopy(link), bytes
}

func endToEndMetrics(o *outcome) map[string]metric {
	lat, link, bytes := readLatencies(o, false)
	n := float64(len(lat))
	return map[string]metric{
		"setup_s":             {median(o.setups), "s"},
		"read_p50_ms":         {percentile(lat, 50), "ms"},
		"read_p99_ms":         {percentile(lat, 99), "ms"},
		"read_qps":            {n / o.readWall.Seconds(), "1/s"},
		"read_p50_100mbps_ms": {percentile(link, 50), "ms"},
		"bytes_per_read":      {float64(bytes) / n, "B"},
		"heap_mb":             {o.heapMB, "MB"},
	}
}

// ratio returns a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func layerMetrics(cfg *runConfig, o *outcome) map[string]metric {
	selfNS, calls := selfByName(o.spans)
	mean := func(name string, unit time.Duration) float64 {
		return ratio(float64(selfNS[name]), float64(calls[name])*float64(unit))
	}
	lr := o.layers
	perReq := func(ns int64) float64 { return ratio(float64(ns), float64(lr.requests)*float64(time.Millisecond)) }
	reduceNS := int64(0)
	for phase := range reducePhases {
		reduceNS += lr.phaseNS[phase]
	}
	cs := o.cacheDelta
	hitRatio := ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))

	// The in-process work of one request: parse, then a cache hit or an
	// execution, the v2 encode, and on the client the decode and any
	// post-join. The rest of the client-observed mean is transport.
	execMS := mean("db.exec", time.Millisecond)
	inProcMS := mean("sqlparse.parse", time.Millisecond) + mean("wire.encode", time.Millisecond) +
		mean("wire.decode", time.Millisecond) + perReq(selfNS["core.postjoin"])
	if cfg.workload.cache {
		inProcMS += mean("sqlparse.canonical", time.Millisecond) +
			hitRatio*mean("cache.hit", time.Millisecond) + (1-hitRatio)*execMS
	} else {
		inProcMS += execMS
	}
	lat, _, _ := readLatencies(o, false)
	// Tracing overhead pairs each request's traced and untraced median, so
	// the gaps between requests' latencies do not enter the difference.
	plain, traced := perRequestMedian(o, false), perRequestMedian(o, true)
	var overhead []float64
	for id, t := range traced {
		if p, ok := plain[id]; ok {
			overhead = append(overhead, t-p)
		}
	}
	meanLat := 0.0
	for _, v := range lat {
		meanLat += v
	}
	meanLat = ratio(meanLat, float64(len(lat)))

	var writeLat []float64
	for _, s := range o.writes {
		writeLat = append(writeLat, ms(s.lat))
	}
	writeLat = sortedCopy(writeLat)
	batches := float64(len(o.writes))
	wd := o.walDelta
	rows := float64(len(o.writes) * batchRows)
	recovery := median(o.recoveries)

	return map[string]metric{
		"sqlparse.parse_us":               {mean("sqlparse.parse", time.Microsecond), "us"},
		"sqlparse.canonical_us":           {mean("sqlparse.canonical", time.Microsecond), "us"},
		"db.exec_ms":                      {execMS, "ms"},
		"engine.scan_ms":                  {perReq(lr.phaseNS["scan"]), "ms"},
		"engine.rows_scanned_per_row_out": {ratio(float64(lr.scanned), float64(lr.rowsOut)), "ratio"},
		"core.reduce_ms":                  {perReq(reduceNS), "ms"},
		"core.decompose_ms":               {perReq(lr.decomposeNS()), "ms"},
		"core.reduction_ratio":            {ratio(float64(lr.reduceOut), float64(lr.reduceIn)), "ratio"},
		"core.postjoin_ms":                {mean("core.postjoin", time.Millisecond), "ms"},
		"wire.encode_ms":                  {mean("wire.encode", time.Millisecond), "ms"},
		"wire.encode_v1_ms":               {mean("wire.encode_v1", time.Millisecond), "ms"},
		"wire.decode_ms":                  {mean("wire.decode", time.Millisecond), "ms"},
		"wire.bytes_v1":                   {ratio(float64(lr.bytesV1), float64(lr.requests)), "B"},
		"wire.bytes_v2":                   {ratio(float64(lr.bytesV2), float64(lr.requests)), "B"},
		"wire.transport_ms":               {meanLat - inProcMS, "ms"},
		"wire.reconnects":                 {float64(o.reconnects), "count"},
		"cache.hit_ratio":                 {hitRatio, "ratio"},
		"cache.hit_us":                    {mean("cache.hit", time.Microsecond), "us"},
		"cache.invalidations":             {float64(cs.Invalidations), "count"},
		"cache.evictions":                 {float64(cs.Evictions), "count"},
		"cache.collapsed":                 {float64(cs.Collapsed), "count"},
		"colstore.frame_build_ms":         {mean("colstore.frame_build", time.Millisecond), "ms"},
		"db.commit_ms":                    {mean("db.commit", time.Millisecond), "ms"},
		"wal.fsyncs_per_commit":           {ratio(float64(wd.Wal.Fsyncs), batches), "ratio"},
		"wal.bytes_per_row":               {ratio(float64(wd.Wal.Bytes), rows), "B"},
		"durable.checkpoint_ms":           {mean("durable.checkpoint", time.Millisecond), "ms"},
		"durable.checkpoint_bytes":        {ratio(float64(wd.CheckpointBytes), float64(wd.Checkpoints)), "B"},
		"durable.replay_records_per_s":    {ratio(float64(o.replayed), recovery), "1/s"},
		"server.query_errors":             {float64(o.serverDelta.QueryErrors), "count"},
		"server.write_stalls":             {float64(o.serverDelta.WriteStalls), "count"},
		"server.backpressure_waits":       {float64(o.serverDelta.BackpressureWaits), "count"},
		"write_p50_ms":                    {percentile(writeLat, 50), "ms"},
		"write_p99_ms":                    {percentile(writeLat, 99), "ms"},
		"stored_bytes_per_row":            {ratio(float64(wd.Wal.Bytes+wd.CheckpointBytes), rows), "B"},
		"recovery_s":                      {recovery, "s"},
		"error_rate":                      {ratio(float64(o.failed), float64(o.attempted)), "ratio"},
		"trace.overhead_ms":               {median(overhead), "ms"},
	}
}

// metadata describes the run: build, host, inputs and sample sizes.
func metadata(cfg *runConfig, o *outcome) map[string]any {
	lat, _, _ := readLatencies(o, false)
	tail, _ := tailPercentile(len(lat))
	m := map[string]any{
		"workload":               cfg.workload.name,
		"seed":                   cfg.seed,
		"seconds":                cfg.seconds,
		"scale":                  scale,
		"commit":                 commit(),
		"go":                     runtime.Version(),
		"gomaxprocs":             runtime.GOMAXPROCS(0),
		"nproc":                  runtime.NumCPU(),
		"reader_conns":           cfg.workload.conns,
		"cache":                  cfg.workload.cache,
		"data_fingerprint":       o.fingerprint,
		"setup_s_each":           o.setups,
		"setup_s_spread":         spreadOrZero(o.setups),
		"reads":                  len(lat),
		"read_tail_pct":          tail,
		"read_beyond_p50":        beyond(len(lat), 50),
		"read_beyond_p99":        beyond(len(lat), 99),
		"heap_mb":                o.heapMB,
		"read_p50_ms_by_request": perRequestMedian(o, false),
		"read_p50_ms_by_window":  perWindowMedian(o),
	}
	if cfg.workload.durable {
		var late []float64
		for _, s := range o.writes {
			late = append(late, ms(s.late))
		}
		late = sortedCopy(late)
		wtail, _ := tailPercentile(len(late))
		m["fsync"] = "always"
		m["data_dir_fs"] = filesystem(cfg.outDir)
		m["checkpoint_every"] = checkpointEvery
		m["write_rate_per_s"] = cfg.workload.writeRate
		m["writes"] = len(late)
		m["write_tail_pct"] = wtail
		m["write_beyond_p99"] = beyond(len(late), 99)
		m["writer_late_p50_ms"] = percentile(late, 50)
		m["writer_late_max_ms"] = percentile(late, 100)
		m["checkpoints"] = o.walDelta.Checkpoints
		m["recovery_s_each"] = o.recoveries
		m["recovery_s_spread"] = spreadOrZero(o.recoveries)
		m["replayed_records"] = o.replayed
	}
	return m
}

// spreadOrZero is quartileSpread, 0 when the sample has none.
func spreadOrZero(vals []float64) float64 {
	s, _ := quartileSpread(vals)
	return s
}

// perRequestMedian returns each request's median latency in ms, over the
// untraced or the traced reads.
func perRequestMedian(o *outcome, traced bool) map[string]float64 {
	by := make(map[string][]float64)
	for _, s := range o.reads {
		if s.traced == traced {
			by[s.id] = append(by[s.id], ms(s.lat))
		}
	}
	out := make(map[string]float64, len(by))
	for id, lats := range by {
		out[id] = median(lats)
	}
	return out
}

// perWindowMedian returns the median untraced latency (ms) of each
// two-second window of the timed phase, which shows drift within a run.
func perWindowMedian(o *outcome) []float64 {
	if len(o.reads) == 0 {
		return nil
	}
	first := o.reads[0].at
	for _, s := range o.reads {
		if s.at.Before(first) {
			first = s.at
		}
	}
	var windows [][]float64
	for _, s := range o.reads {
		if s.traced {
			continue
		}
		w := int(s.at.Sub(first) / (2 * time.Second))
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], ms(s.lat))
	}
	out := make([]float64, len(windows))
	for i, w := range windows {
		out[i] = median(w)
	}
	return out
}

// selfSummary totals span self time in milliseconds, per span name and per
// layer.
func selfSummary(spans []Span) (byName, byLayer map[string]float64) {
	self := selfTimes(spans)
	byName = make(map[string]float64)
	byLayer = make(map[string]float64)
	for _, s := range spans {
		byName[s.Name] += float64(self[s.ID]) / 1e6
		byLayer[s.Layer()] += float64(self[s.ID]) / 1e6
	}
	return byName, byLayer
}

// commit returns the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}
