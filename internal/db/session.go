package db

import (
	"errors"
	"fmt"

	"resultdb/internal/core"
	"resultdb/internal/sqlparse"
	"resultdb/internal/trace"
)

// Session is one client's handle on the database and its only statement
// executor — the wire server opens one per connection, the shell uses one
// for the interactive loop, Database.Exec opens a fresh one per call —
// making the engine's visibility rules an explicit contract instead of an accident of
// locking:
//
//   - Snapshot isolation per statement: every statement executed through a
//     session runs against one immutable committed state. It can never
//     observe another connection's half-applied batch, no matter how the
//     statements interleave.
//   - Read your own writes: a mutation acknowledged through this session is
//     visible to every later statement of the same session (writes are
//     globally serialized, and the session re-pins after its own commits).
//   - Snapshot isolation across connections: another session's commit
//     becomes visible only at a statement boundary — by default at the next
//     statement (each statement pins the then-newest state), or, between
//     Pin and Unpin, not at all (repeatable reads against one frozen state).
//
// Per-session execution options (Strategy, CoreOptions, DPJoinOrder) start
// as copies of the database's and may be changed freely between the
// session's own statements without racing other connections — this is what
// the wire server's per-connection settings ride on. A Session is not safe
// for concurrent use by multiple goroutines; open one per client. Sessions
// hold no server-side resources and need no close.
type Session struct {
	db *Database
	// pinned, when non-nil, freezes the session's view (Pin/Unpin). When
	// nil, each statement pins the newest committed state.
	pinned *Snapshot

	// Strategy, CoreOptions, and DPJoinOrder are this session's private
	// execution options, seeded from the database's at NewSession.
	Strategy    Strategy
	CoreOptions core.Options
	DPJoinOrder bool
}

// NewSession opens a session whose options start as copies of the
// database-level configuration.
func (d *Database) NewSession() *Session {
	return &Session{
		db:          d,
		Strategy:    d.Strategy,
		CoreOptions: d.CoreOptions,
		DPJoinOrder: d.DPJoinOrder,
	}
}

// DB returns the underlying database.
func (s *Session) DB() *Database { return s.db }

// Snapshot returns the state the session's next read statement would see:
// the pinned snapshot, or the newest committed state.
func (s *Session) Snapshot() *Snapshot {
	if s.pinned != nil {
		return s.pinned
	}
	return s.db.Snapshot()
}

// Pin freezes the session's view at the newest committed state (or keeps
// the current pin): until Unpin, every read statement sees exactly this
// state — repeatable reads. The session's own writes still re-pin, so read
// your own writes survives pinning.
func (s *Session) Pin() *Snapshot {
	if s.pinned == nil {
		s.pinned = s.db.Snapshot()
	}
	return s.pinned
}

// Unpin releases a pinned view; subsequent statements see the newest
// committed state again.
func (s *Session) Unpin() { s.pinned = nil }

// Pinned reports whether the session is holding a frozen view.
func (s *Session) Pinned() bool { return s.pinned != nil }

// ctx builds the execution context for one read statement: the session's
// view plus its private options.
func (s *Session) ctx() execCtx {
	snap := s.Snapshot()
	return execCtx{
		src:         snap,
		snap:        snap,
		opts:        s.CoreOptions,
		strategy:    s.Strategy,
		dpJoinOrder: s.DPJoinOrder,
	}
}

// afterWrite re-pins a frozen session on the newest state so the session's
// own acknowledged write is visible to its next statement (read your own
// writes). Unpinned sessions need nothing: they pick up the newest state —
// which includes the write, because writes are serialized and acknowledged
// only after publish — at the next statement anyway.
func (s *Session) afterWrite() {
	if s.pinned != nil {
		s.pinned = s.db.Snapshot()
	}
}

// ErrInternal marks a panic confined to its statement: the statement fails
// with an error wrapping ErrInternal ("db: internal error: ...") instead of
// taking down an embedding process or server.
var ErrInternal = errors.New("db: internal error")

// Exec parses and executes a single SQL statement through the session.
func (s *Session) Exec(sql string) (*Result, error) {
	res, _, err := s.run(sql, nil, false, nil)
	return res, err
}

// ExecStatement executes a parsed statement through the session: reads run
// against the session's view with the session's options; mutations go
// through the database's serialized write path and then refresh the
// session's view.
func (s *Session) ExecStatement(st sqlparse.Statement) (*Result, error) {
	res, _, err := s.run("", st, false, nil)
	return res, err
}

// Query executes a SELECT against the session's view. SELECT RESULTDB
// returns one result set per output relation (Definition 2.2); everything
// else returns a single-table result.
func (s *Session) Query(sel *sqlparse.Select) (*Result, error) {
	return s.ExecStatement(sel)
}

// QueryResultDB executes sel with subdatabase semantics regardless of the
// RESULTDB keyword, in the requested mode (RDB per Definition 2.2, RDBRP per
// Definition 2.3). This is the programmatic entry the benchmarks use.
func (s *Session) QueryResultDB(sel *sqlparse.Select, mode Mode) (*Result, error) {
	forced := *sel
	forced.ResultDB = true
	forced.Preserving = mode == ModeRDBRP
	return s.ExecStatement(&forced)
}

// QueryWithTrace executes a SELECT against the session's view with
// execution tracing enabled and returns the result together with the
// structured trace (per-operator spans with actual cardinalities, wall
// times, and transfer bytes). The result is bit-identical to Query's;
// tracing only observes.
func (s *Session) QueryWithTrace(sel *sqlparse.Select) (*Result, *trace.Trace, error) {
	return s.run("", sel, true, nil)
}

// ExecStream executes one SQL statement through the session, delivering the
// result incrementally: begin is called exactly once with the header (set
// count, post-join plan, reduction stats), then emit once per result set, in
// result order. For uncached SELECTs the calls interleave with execution —
// emit(set_i) runs before relation i+1 is projected, which is what makes
// server-side pipelining (execute ‖ encode ‖ transmit) possible. Cached
// SELECTs and non-SELECT statements execute fully first and then replay
// their result through the callbacks, so consumers see one protocol either
// way.
//
// The returned Result is the same value Exec would have produced. An error
// from begin or emit aborts execution and is returned verbatim; an
// execution error after begin was already called is returned too —
// streaming consumers must be prepared to abandon a stream mid-flight.
func (s *Session) ExecStream(sql string, begin func(StreamMeta) error, emit func(*ResultSet) error) (*Result, error) {
	res, _, err := s.run(sql, nil, false, &streamSink{beginFn: begin, emitFn: emit})
	return res, err
}

// run is the one statement path every entry point goes through: it executes
// st, or the statement parsed from sql when st is nil. A panic anywhere
// below it, the parser and the sink's callbacks included, is confined to the
// statement and surfaces as an ErrInternal error. traced asks a SELECT for
// its execution trace; a non-nil sink receives the result as a stream.
func (s *Session) run(sql string, st sqlparse.Statement, traced bool, sink *streamSink) (res *Result, tr *trace.Trace, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, tr, err = nil, nil, fmt.Errorf("%w: %v", ErrInternal, p)
		}
	}()
	if st == nil {
		if st, err = sqlparse.Parse(sql); err != nil {
			return nil, nil, err
		}
	}
	switch t := st.(type) {
	case *sqlparse.Select:
		return s.db.query(s.ctx(), t, traced, sink)
	case *sqlparse.Explain:
		res, err = s.db.explain(s.ctx(), t)
	case *sqlparse.Analyze:
		res, err = s.db.execAnalyze(t)
	case *sqlparse.CreateTable, *sqlparse.DropTable, *sqlparse.CreateMaterializedView,
		*sqlparse.DropMaterializedView, *sqlparse.Insert:
		if res, err = s.db.execMutation(st); err == nil {
			s.afterWrite()
		}
	case *sqlparse.Begin, *sqlparse.Commit, *sqlparse.Rollback:
		res = &Result{}
	default:
		err = fmt.Errorf("db: unsupported statement %T", st)
	}
	if err != nil {
		return nil, nil, err
	}
	return res, nil, sink.replay(res)
}
