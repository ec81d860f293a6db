package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"resultdb/internal/client"
	"resultdb/internal/db"
	"resultdb/internal/sqlparse"
	"resultdb/internal/wire"
)

// expected is the uncached in-process answer to one request.
type expected struct {
	v1       []byte   // v1 encoding of the result
	setRows  []int    // rows per result set, in order
	single   []string // PRESERVING only: distinct rows of the single-table query, sorted
	pjRows   int      // PRESERVING only: rows of the in-process post-join
	castInfo bool     // the query reads cast_info, which mixed-rw writes
}

// uncachedSession returns a session that bypasses the result cache.
func uncachedSession(d *db.Database) *db.Session {
	s := d.NewSession()
	s.CoreOptions.ResultCache = false
	return s
}

// buildOracle answers every request in-process, uncached.
func buildOracle(d *db.Database, reqs []Request) (map[string]*expected, error) {
	sess := uncachedSession(d)
	out := make(map[string]*expected, len(reqs))
	for _, r := range reqs {
		res, err := sess.Exec(r.SQL)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", r.ID(), err)
		}
		sel, err := sqlparse.ParseSelect(r.SQL)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", r.ID(), err)
		}
		exp := &expected{v1: wire.EncodeResult(res), setRows: setRows(res)}
		for _, t := range sqlparse.Tables(sel) {
			if strings.EqualFold(t, "cast_info") {
				exp.castInfo = true
			}
		}
		if r.Preserving {
			single, err := sess.Exec(r.Single)
			if err != nil {
				return nil, fmt.Errorf("oracle %s single-table: %w", r.ID(), err)
			}
			exp.single = distinctRows(single.First())
			pj, err := db.ExecutePostJoinPlan(res)
			if err != nil {
				return nil, fmt.Errorf("oracle %s post-join: %w", r.ID(), err)
			}
			exp.pjRows = len(pj.Rows)
		}
		out[r.ID()] = exp
	}
	return out, nil
}

func setRows(res *db.Result) []int {
	n := make([]int, len(res.Sets))
	for i, s := range res.Sets {
		n[i] = len(s.Rows)
	}
	return n
}

// distinctRows returns the set's distinct rows, rendered and sorted.
func distinctRows(set *db.ResultSet) []string {
	seen := make(map[string]bool, len(set.Rows))
	rows := make([]string, 0, len(set.Rows))
	for _, r := range set.Rows {
		if s := r.String(); !seen[s] {
			seen[s] = true
			rows = append(rows, s)
		}
	}
	sort.Strings(rows)
	return rows
}

// postJoin reconstructs the single-table result on the client, as an
// application using the client package does, and reads it to the end.
func postJoin(sub *client.SubDB) (*db.ResultSet, error) {
	pj, err := sub.PostJoin()
	if err != nil {
		return nil, err
	}
	out := &db.ResultSet{Name: pj.Name(), Columns: pj.Columns()}
	for pj.Next() {
		out.Rows = append(out.Rows, pj.Row())
	}
	return out, nil
}

// checkFull compares a response received over TCP with the oracle byte for
// byte (v1 re-encoding), and a post-join with the single-table result as a
// set: RESULTDB follows the paper's set semantics, so the reconstruction may
// collapse rows the single-table query returns more than once (DESIGN.md,
// "Remaining out of scope").
func checkFull(r Request, exp *expected, res *db.Result, pj *db.ResultSet) error {
	if got := wire.EncodeResult(res); !bytes.Equal(got, exp.v1) {
		return fmt.Errorf("%s: response differs from the oracle (%d bytes, want %d)", r.ID(), len(got), len(exp.v1))
	}
	if r.Preserving {
		got := distinctRows(pj)
		if len(got) != len(exp.single) {
			return fmt.Errorf("%s: post-join has %d distinct rows, single-table query %d", r.ID(), len(got), len(exp.single))
		}
		for i := range got {
			if got[i] != exp.single[i] {
				return fmt.Errorf("%s: post-join row %q differs from single-table row %q", r.ID(), got[i], exp.single[i])
			}
		}
	}
	return nil
}

// checkShape is the per-response check inside timed loops: set and row
// counts must match the oracle. Requests whose tables a concurrent writer
// changes are only required to succeed.
func checkShape(r Request, exp *expected, res *db.Result, pj *db.ResultSet, writes bool) error {
	if writes && exp.castInfo {
		return nil
	}
	got := setRows(res)
	if len(got) != len(exp.setRows) {
		return fmt.Errorf("%s: %d result sets, want %d", r.ID(), len(got), len(exp.setRows))
	}
	for i := range got {
		if got[i] != exp.setRows[i] {
			return fmt.Errorf("%s: set %d has %d rows, want %d", r.ID(), i, got[i], exp.setRows[i])
		}
	}
	if r.Preserving && len(pj.Rows) != exp.pjRows {
		return fmt.Errorf("%s: post-join has %d rows, want %d", r.ID(), len(pj.Rows), exp.pjRows)
	}
	return nil
}
