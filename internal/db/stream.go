package db

import "resultdb/internal/core"

// StreamMeta is the response header of a streamed execution: everything a
// consumer must know before the first result set arrives. For RESULTDB
// queries the set count and the post-join plan are fixed by the analysis
// phase, before any output relation is projected, so a wire server can
// serialize the header and then ship each relation while the executor is
// still projecting the next one.
type StreamMeta struct {
	// NumSets is the exact number of emit calls that will follow.
	NumSets int
	// Plan is the shipped post-join recipe (RDBRP results only).
	Plan *PostJoinPlan
	// Stats reports the native reduction's work, when that strategy ran.
	Stats *core.Stats
}

// streamSink receives a streamed execution, nil-safe: a nil sink turns
// queryResultDBAt/querySingleTableAt back into the plain buffered path at
// the cost of two nil checks.
type streamSink struct {
	beginFn func(StreamMeta) error
	emitFn  func(*ResultSet) error
}

func (s *streamSink) begin(m StreamMeta) error {
	if s == nil {
		return nil
	}
	return s.beginFn(m)
}

func (s *streamSink) emit(set *ResultSet) error {
	if s == nil {
		return nil
	}
	return s.emitFn(set)
}

// replay feeds an already-materialized result through the sink (cached
// SELECTs and non-SELECT statements).
func (s *streamSink) replay(res *Result) error {
	if err := s.begin(StreamMeta{NumSets: len(res.Sets), Plan: res.PostJoinPlan, Stats: res.Stats}); err != nil {
		return err
	}
	for _, set := range res.Sets {
		if err := s.emit(set); err != nil {
			return err
		}
	}
	return nil
}
