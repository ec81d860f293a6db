package main

import (
	"reflect"
	"strings"
	"testing"

	"resultdb/internal/db"
	"resultdb/internal/workload/job"
)

// inputs renders everything a seed generates for every workload: the first
// rounds of each reader connection and the first writer batches.
func inputs(seed int64) []string {
	var out []string
	for _, name := range []string{"job-cold", "job-hot", "mixed-rw"} {
		w := workloads[name]
		for conn := 0; conn < w.conns; conn++ {
			st := newStream(seed, conn, w.reqs())
			for round := 0; round < 3; round++ {
				for _, r := range st.next() {
					out = append(out, name+" "+r.ID())
				}
			}
		}
	}
	wr := newWriter(seed, job.Sizes(jobConfig()))
	for i := 0; i < 5; i++ {
		out = append(out, wr.next())
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(inputs(7), inputs(7)) {
		t.Fatal("seed 7 generated two different request lists")
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := inputs(7), inputs(8)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 generated the same request lists")
	}
	if reflect.DeepEqual(a[:43], b[:43]) {
		t.Error("job-cold's first round does not depend on the seed")
	}
}

func TestRoundsCoverEveryRequestOnce(t *testing.T) {
	for name, want := range map[string]int{"job-cold": 43, "job-hot": 33, "mixed-rw": 33} {
		st := newStream(1, 0, workloads[name].reqs())
		round := st.next()
		seen := make(map[string]bool)
		for _, r := range round {
			seen[r.ID()] = true
		}
		if len(round) != want || len(seen) != want {
			t.Errorf("%s: round has %d requests, %d distinct; want %d", name, len(round), len(seen), want)
		}
	}
}

func TestWriterBatchesContinueAfterSeededRows(t *testing.T) {
	sizes := job.Sizes(jobConfig())
	wr := newWriter(3, sizes)
	first := wr.next()
	if !strings.HasPrefix(first, "INSERT INTO cast_info VALUES (20000, ") {
		t.Errorf("first batch starts %q", first[:48])
	}
	if got := strings.Count(first, "), ("); got != batchRows-1 {
		t.Errorf("batch has %d rows, want %d", got+1, batchRows)
	}
}

func TestSameSeedSameData(t *testing.T) {
	fp := func() string {
		d := db.Open(db.DefaultConfig())
		if err := job.Load(d, jobConfig()); err != nil {
			t.Fatal(err)
		}
		f, err := fingerprint(d)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if a, b := fp(), fp(); a != b {
		t.Fatalf("the same configuration loaded two databases: %s and %s", a, b)
	}
}
