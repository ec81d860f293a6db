package main

import (
	"fmt"
	"os"
	"time"

	"resultdb/internal/db"
	"resultdb/internal/durable"
	"resultdb/internal/wal"
	"resultdb/internal/wire"
	"resultdb/internal/workload/job"
)

// Server-side settings are the resultdbd defaults.
const (
	cacheBudget     = "64MiB" // resultdbd -cache-budget
	drainTimeout    = 10 * time.Second
	checkpointEvery = 260 // batches; mixed-rw's schedule is not a multiple of it
)

// env is one running deployment: a database behind a wire server on
// loopback TCP.
type env struct {
	db   *db.Database
	mgr  *durable.Manager // mixed-rw only
	dir  string           // mixed-rw data directory
	srv  *wire.Server
	addr string
}

// probeSQL is the request setup ends with: the first response proves the
// server answers.
var probeSQL = rdbRequests()[0].SQL

// openEnv builds a deployment for the workload and waits for its first
// response. The returned duration is the workload's set-up time. A durable
// deployment gets a fresh data directory under cfg.outDir.
func openEnv(cfg *runConfig) (*env, time.Duration, error) {
	budget, err := db.ParseByteSize(cacheBudget)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	e := &env{}
	load := func(d *db.Database) error { return job.Load(d, jobConfig()) }
	if cfg.workload.durable {
		if e.dir, err = os.MkdirTemp(cfg.outDir, "data-"); err != nil {
			return nil, 0, err
		}
		e.mgr, e.db, err = durable.Open(durableOptions(e.dir), load)
		if err != nil {
			e.close()
			return nil, 0, err
		}
	} else {
		e.db = db.Open(db.DefaultConfig())
		if err := load(e.db); err != nil {
			return nil, 0, err
		}
	}
	if cfg.workload.cache {
		e.db.EnableCache(budget)
	}
	e.srv = wire.NewServer(e.db)
	e.addr, err = e.srv.Listen("127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, 0, err
	}
	c, err := wire.Dial(e.addr)
	if err != nil {
		e.close()
		return nil, 0, err
	}
	_, err = c.Exec(probeSQL)
	c.Close()
	if err != nil {
		e.close()
		return nil, 0, fmt.Errorf("first response: %w", err)
	}
	return e, time.Since(start), nil
}

// durableOptions are mixed-rw's durability settings: the resultdbd defaults
// except for a checkpoint interval short enough that every run takes
// several checkpoints.
func durableOptions(dir string) durable.Options {
	return durable.Options{Dir: dir, Fsync: wal.SyncAlways, CheckpointEvery: checkpointEvery}
}

// stopServer drains the server; clients must be closed first.
func (e *env) stopServer() {
	if e.srv != nil {
		e.srv.Shutdown(drainTimeout)
		e.srv = nil
	}
}

// close stops the server, releases the log and removes the data directory.
func (e *env) close() error {
	e.stopServer()
	var err error
	if e.mgr != nil {
		err = e.mgr.Close()
		e.mgr = nil
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}
