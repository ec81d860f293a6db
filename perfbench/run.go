package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"resultdb/internal/cache"
	"resultdb/internal/client"
	"resultdb/internal/db"
	"resultdb/internal/durable"
	"resultdb/internal/wire"
	"resultdb/internal/workload/job"
)

// workload is one traffic mix.
type workload struct {
	name    string
	cache   bool // result cache on, with the resultdbd -cache budget
	durable bool // durable.Open on a data directory, fsync always
	conns   int  // closed-loop reader connections
	warm    bool // one untimed pass before timing
	// writeRate is the open-loop writer's batches per second (0 = no writer).
	writeRate int
	reqs      func() []Request
}

var workloads = map[string]workload{
	"job-cold": {name: "job-cold", conns: 1,
		reqs: func() []Request { return append(rdbRequests(), rpRequests()...) }},
	"job-hot": {name: "job-hot", cache: true, conns: runtime.NumCPU(), warm: true,
		reqs: rdbRequests},
	"mixed-rw": {name: "mixed-rw", cache: true, durable: true, conns: 1, writeRate: 100,
		reqs: rdbRequests},
}

// runConfig is one invocation.
type runConfig struct {
	workload workload
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// setupReps is how many times a run sets up its deployment; setup_s is the
// median.
const setupReps = 15

// readSample is one client-observed read.
type readSample struct {
	id     string
	at     time.Time // when the request was sent
	lat    time.Duration
	bytes  int
	traced bool
}

// writeSample is one writer batch, timed from its due time to its ack.
type writeSample struct {
	lat  time.Duration
	late time.Duration // how late the open-loop generator sent it
}

// outcome collects everything one run measured.
type outcome struct {
	setups      []float64 // seconds
	reads       []readSample
	readWall    time.Duration
	writes      []writeSample
	ackedRows   int
	attempted   int
	failed      int
	firstErr    error
	mismatch    bool // a wrong result, as opposed to a failed operation
	heapMB      float64
	cacheDelta  cache.Stats
	serverDelta wire.ServerStats
	walDelta    durable.Stats
	reconnects  int
	recoveries  []float64 // seconds per reopen
	replayed    int64
	fingerprint string
	spans       []Span
	layers      *layerReport
}

func (o *outcome) fail(err error, wrong bool) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
	if wrong {
		o.mismatch = true
	}
}

// run performs one invocation: set-up, correctness check, timed phase, and
// for --trace 1 the traced replay.
func run(cfg *runConfig) (*outcome, error) {
	o := &outcome{}
	w := cfg.workload
	var e *env
	var err error
	for i := 0; i < setupReps; i++ {
		ee, took, err := openEnv(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		o.setups = append(o.setups, took.Seconds())
		if i < setupReps-1 {
			if err := ee.close(); err != nil {
				return nil, err
			}
			continue
		}
		e = ee
	}
	defer e.close()

	if o.fingerprint, err = fingerprint(e.db); err != nil {
		return nil, err
	}
	reqs := w.reqs()
	oracle, err := buildOracle(e.db, reqs)
	if err != nil {
		return nil, err
	}
	if err := checkOverTCP(e, reqs, oracle, o); err != nil {
		return nil, err
	}
	if w.warm {
		if err := checkOverTCP(e, reqs, oracle, o); err != nil {
			return nil, err
		}
	}

	var wr *writer
	if w.writeRate > 0 {
		wr = newWriter(cfg.seed, job.Sizes(jobConfig()))
	}
	var rec *recorder
	if cfg.trace {
		// The in-process replay runs first, so the timed phase still ends
		// with the writer's schedule and its last checkpoint.
		rec = newRecorder()
		if o.layers, err = replayLayers(cfg, e, reqs, wr, rec, o); err != nil {
			return nil, err
		}
	}
	cache0, srv0 := e.db.CacheStats(), e.srv.Stats()
	var dur0 durable.Stats
	if e.mgr != nil {
		dur0 = e.mgr.Stats()
	}
	if err := timedPhase(cfg, e, reqs, oracle, wr, rec, o); err != nil {
		return nil, err
	}
	o.cacheDelta = cacheDelta(e.db.CacheStats(), cache0)
	o.serverDelta = serverDelta(e.srv.Stats(), srv0)
	if e.mgr != nil {
		o.walDelta = durableDelta(e.mgr.Stats(), dur0)
	}
	// Whether the newest cast_info version's column frame exists depends on
	// whether a read followed the last write; build every missing frame so
	// the heap holds the same structures on every run. Then two collections:
	// the first moves sync.Pool contents (the encoder's flate writers) to the
	// victim cache, the second frees them, so the figure is the live heap of
	// the database, cache and server.
	for _, name := range e.db.TableNames() {
		if t, err := e.db.Table(name); err == nil {
			t.Columns()
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.heapMB = float64(ms.HeapAlloc) / (1 << 20)

	if cfg.trace {
		o.spans = rec.snapshot()
	}
	if w.durable {
		if err := checkDurable(e, reqs, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkOverTCP sends every distinct request once over a fresh connection
// and compares each answer with the oracle.
func checkOverTCP(e *env, reqs []Request, oracle map[string]*expected, o *outcome) error {
	c, err := wire.Dial(e.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	h := client.Open(c)
	for _, r := range reqs {
		o.attempted++
		sub, err := h.QuerySubDB(r.SQL)
		if err != nil {
			o.fail(fmt.Errorf("%s: %w", r.ID(), err), false)
			continue
		}
		var pj *db.ResultSet
		if r.Preserving {
			if pj, err = postJoin(sub); err != nil {
				o.fail(fmt.Errorf("%s: post-join: %w", r.ID(), err), false)
				continue
			}
		}
		if err := checkFull(r, oracle[r.ID()], sub.Result(), pj); err != nil {
			o.fail(err, true)
		}
	}
	return nil
}

// timedPhase drives the workload's connections for cfg.seconds. In a traced
// run every other round records spans, so traced and untraced requests see
// the same database state and load.
func timedPhase(cfg *runConfig, e *env, reqs []Request, oracle map[string]*expected, wr *writer, rec *recorder, o *outcome) error {
	w := cfg.workload
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	writerDone := make(chan struct{})
	clients := make([]*wire.Client, w.conns)
	for i := range clients {
		c, err := wire.Dial(e.addr)
		if err != nil {
			for _, c := range clients[:i] {
				c.Close()
			}
			return err
		}
		clients[i] = c
	}
	var wc *wire.Client
	if wr != nil {
		c, err := wire.Dial(e.addr)
		if err != nil {
			for _, c := range clients {
				c.Close()
			}
			return err
		}
		wc = c
	} else {
		close(writerDone)
	}

	type readerOut struct {
		samples []readSample
		o       outcome
	}
	outs := make([]readerOut, w.conns)
	var wg sync.WaitGroup
	start := time.Now()
	var readEnd time.Time
	var endMu sync.Mutex
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := newStream(cfg.seed, i, reqs)
			h := client.Open(clients[i])
			ro := &outs[i]
			// Readers stop at the deadline, mid-round, so the number of
			// connections in flight stays constant to the end; with a writer
			// they go on until its schedule is done.
			done := func() bool { return time.Now().After(deadline) && closed(writerDone) }
			for round := 0; !done(); round++ {
				var r *recorder
				if rec != nil && round%2 == 1 {
					r = rec
				}
				for _, req := range st.next() {
					if done() {
						break
					}
					s, err := readOnce(h, clients[i], req, oracle[req.ID()], wr != nil, r)
					ro.o.attempted++
					if err != nil {
						var wrong *wrongResult
						ro.o.fail(err, errors.As(err, &wrong))
						continue
					}
					ro.samples = append(ro.samples, s)
				}
			}
			endMu.Lock()
			if now := time.Now(); now.After(readEnd) {
				readEnd = now
			}
			endMu.Unlock()
		}(i)
	}
	var wo outcome
	if wr != nil {
		n := w.writeRate * cfg.seconds
		interval := time.Second / time.Duration(w.writeRate)
		for k := 0; k < n; k++ {
			due := start.Add(time.Duration(k) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late := time.Since(due)
			wo.attempted++
			if _, err := wc.Exec(wr.next()); err != nil {
				wo.fail(fmt.Errorf("writer batch %d: %w", k, err), false)
				continue
			}
			o.writes = append(o.writes, writeSample{lat: time.Since(due), late: late})
			o.ackedRows += batchRows
		}
		close(writerDone)
	}
	wg.Wait()
	o.readWall = readEnd.Sub(start)
	for _, ro := range append(outs, readerOut{o: wo}) {
		o.reads = append(o.reads, ro.samples...)
		o.attempted += ro.o.attempted
		o.failed += ro.o.failed
		o.mismatch = o.mismatch || ro.o.mismatch
		if o.firstErr == nil {
			o.firstErr = ro.o.firstErr
		}
	}
	for _, c := range clients {
		o.reconnects += c.Reconnects()
		c.Close()
	}
	if wc != nil {
		o.reconnects += wc.Reconnects()
		wc.Close()
	}
	return nil
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// wrongResult marks a response that arrived but disagrees with the oracle.
type wrongResult struct{ err error }

func (w *wrongResult) Error() string { return w.err.Error() }

// readOnce performs one request as a client application does: the exchange,
// then for PRESERVING the client-side post-join. The latency ends when the
// application holds the final result.
func readOnce(h *client.DB, c *wire.Client, req Request, exp *expected, writes bool, rec *recorder) (readSample, error) {
	id := req.ID()
	root := rec.open("request", id, 0)
	before := c.BytesRead()
	start := time.Now()
	span := rec.open("wire.exchange", id, root)
	sub, err := h.QuerySubDB(req.SQL)
	rec.close(span)
	if err != nil {
		rec.close(root)
		return readSample{}, fmt.Errorf("%s: %w", id, err)
	}
	var pj *db.ResultSet
	if req.Preserving {
		span = rec.open("client.postjoin", id, root)
		pj, err = postJoin(sub)
		rec.close(span)
		if err != nil {
			rec.close(root)
			return readSample{}, fmt.Errorf("%s: post-join: %w", id, err)
		}
	}
	lat := time.Since(start)
	rec.close(root)
	if err := checkShape(req, exp, sub.Result(), pj, writes); err != nil {
		return readSample{}, &wrongResult{err}
	}
	return readSample{id: id, at: start, lat: lat, bytes: c.BytesRead() - before, traced: rec != nil}, nil
}

// checkDurable closes mixed-rw's database cleanly and reopens it: cast_info
// must hold the seeded rows plus every acknowledged one, and every JOB query
// must encode byte-identically before the close and after each reopen.
func checkDurable(e *env, reqs []Request, o *outcome) error {
	want := job.Sizes(jobConfig())["cast_info"] + o.ackedRows
	if got := castInfoRows(e.db); got != want {
		o.fail(fmt.Errorf("cast_info holds %d rows, want %d seeded + acked", got, want), true)
	}
	before, err := encodeAll(e.db, reqs)
	if err != nil {
		return err
	}
	e.stopServer()
	if err := e.mgr.Close(); err != nil {
		return err
	}
	e.mgr = nil
	for i := 0; i < reopenReps; i++ {
		start := time.Now()
		mgr, d, err := durable.Open(durableOptions(e.dir), nil)
		if err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		o.recoveries = append(o.recoveries, time.Since(start).Seconds())
		o.replayed = mgr.Stats().Replayed
		if got := castInfoRows(d); got != want {
			o.fail(fmt.Errorf("reopened cast_info holds %d rows, want %d", got, want), true)
		}
		after, err := encodeAll(d, reqs)
		if err != nil {
			mgr.Close()
			return err
		}
		for j, r := range reqs {
			if !bytes.Equal(after[j], before[j]) {
				o.fail(fmt.Errorf("%s encodes differently after reopen", r.ID()), true)
			}
		}
		if err := mgr.Close(); err != nil {
			return err
		}
	}
	return nil
}

// reopenReps is how many times mixed-rw reopens its data directory;
// recovery_s is the median.
const reopenReps = 5

func castInfoRows(d *db.Database) int {
	t, err := d.Table("cast_info")
	if err != nil {
		return -1
	}
	return t.Len()
}

// encodeAll answers every request uncached and returns the v1 encodings.
func encodeAll(d *db.Database, reqs []Request) ([][]byte, error) {
	sess := uncachedSession(d)
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		res, err := sess.Exec(r.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID(), err)
		}
		out[i] = wire.EncodeResult(res)
	}
	return out, nil
}

func cacheDelta(a, b cache.Stats) cache.Stats {
	return cache.Stats{
		Hits:          a.Hits - b.Hits,
		Misses:        a.Misses - b.Misses,
		Invalidations: a.Invalidations - b.Invalidations,
		Evictions:     a.Evictions - b.Evictions,
		Collapsed:     a.Collapsed - b.Collapsed,
	}
}

func serverDelta(a, b wire.ServerStats) wire.ServerStats {
	return wire.ServerStats{
		Queries:           a.Queries - b.Queries,
		QueryErrors:       a.QueryErrors - b.QueryErrors,
		WriteStalls:       a.WriteStalls - b.WriteStalls,
		BackpressureWaits: a.BackpressureWaits - b.BackpressureWaits,
	}
}

func durableDelta(a, b durable.Stats) durable.Stats {
	d := a
	d.Wal.Records -= b.Wal.Records
	d.Wal.Bytes -= b.Wal.Bytes
	d.Wal.Fsyncs -= b.Wal.Fsyncs
	d.Wal.SyncRequests -= b.Wal.SyncRequests
	d.Checkpoints -= b.Checkpoints
	d.CheckpointBytes -= b.CheckpointBytes
	return d
}
