package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"

	"resultdb/internal/db"
	"resultdb/internal/snapshot"
	"resultdb/internal/workload/job"
)

// Request is one statement of a workload's request list.
type Request struct {
	// Query is the JOB instance name, e.g. "16b".
	Query string
	// Preserving marks a SELECT RESULTDB PRESERVING request, which the client
	// post-joins back into the single-table result.
	Preserving bool
	// SQL is the statement sent to the server.
	SQL string
	// Single is the single-table form of the query, the post-join oracle.
	Single string
}

// ID names the request in spans and reports: "16b" or "16b/rp".
func (r Request) ID() string {
	if r.Preserving {
		return r.Query + "/rp"
	}
	return r.Query
}

// rdbRequests returns the 33 JOB queries as SELECT RESULTDB, in Figure 8
// order.
func rdbRequests() []Request {
	var out []Request
	for _, q := range job.Queries() {
		out = append(out, newRequest(q, false))
	}
	return out
}

// rpRequests returns the paper's ten Table 1 queries as SELECT RESULTDB
// PRESERVING.
func rpRequests() []Request {
	var out []Request
	for _, name := range job.Table1Queries {
		q, err := job.QueryByName(name)
		if err != nil {
			panic(err) // Table1Queries names only known queries
		}
		out = append(out, newRequest(q, true))
	}
	return out
}

func newRequest(q job.Query, preserving bool) Request {
	body := strings.TrimPrefix(strings.TrimSpace(q.SQL), "SELECT")
	head := "SELECT RESULTDB"
	if preserving {
		head = "SELECT RESULTDB PRESERVING"
	}
	return Request{Query: q.Name, Preserving: preserving, SQL: head + body, Single: "SELECT" + body}
}

// stream draws the rounds of one closed-loop connection: each round is a
// seeded shuffle of the same request set, so every request weighs the same
// in the latency sample while its order varies with the seed.
type stream struct {
	rng  *rand.Rand
	reqs []Request
}

// newStream seeds connection conn of a workload. Streams of one seed are
// independent of each other and of the writer.
func newStream(seed int64, conn int, reqs []Request) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed*1000003 + int64(conn) + 1)), reqs: reqs}
}

// next returns the stream's next round.
func (s *stream) next() []Request {
	round := append([]Request(nil), s.reqs...)
	s.rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	return round
}

// batchRows is the number of cast_info rows one writer batch inserts.
const batchRows = 20

// writer generates mixed-rw's INSERT batches into cast_info. Row ids
// continue after the seeded rows, so every batch commits.
type writer struct {
	rng    *rand.Rand
	nextID int
	movies int
	people int
	roles  int
}

func newWriter(seed int64, sizes map[string]int) *writer {
	return &writer{
		rng:    rand.New(rand.NewSource(seed*1000003 - 7)),
		nextID: sizes["cast_info"],
		movies: sizes["title"],
		people: sizes["name"],
		roles:  sizes["role_type"],
	}
}

// next returns the next batch statement.
func (w *writer) next() string {
	var b strings.Builder
	b.WriteString("INSERT INTO cast_info VALUES ")
	for i := 0; i < batchRows; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		note := ""
		if w.rng.Intn(5) == 0 {
			note = fmt.Sprintf("(as bench %d)", w.rng.Intn(1000))
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %d, '%s')",
			w.nextID, w.rng.Intn(w.people), w.rng.Intn(w.movies), w.rng.Intn(w.roles), note)
		w.nextID++
	}
	return b.String()
}

// The database is the JOB workload resultdbd loads by default: scale 0.25,
// generator seed 42. It is the same for every benchmark seed, so run-to-run
// spread comes from the traffic alone; the seed drives the request order and
// the written rows.
const (
	scale    = 0.25
	dataSeed = 42
)

// jobConfig is the generated database.
func jobConfig() job.Config {
	return job.Config{Scale: scale, Seed: dataSeed}
}

// fingerprint hashes the database's checkpoint encoding, which covers every
// table's schema and rows.
func fingerprint(d *db.Database) (string, error) {
	h := sha256.New()
	if err := snapshot.Save(d, h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}
