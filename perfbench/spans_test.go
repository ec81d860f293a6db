package main

import "testing"

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "wire.exchange", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "client.postjoin", Start: 40, End: 70}, // overlaps the exchange
		{ID: 4, Parent: 2, Name: "wire.decode", Start: 20, End: 30},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // ends after its parent
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 100 - (60 + 10), // children cover 10..70 and 90..100
		2: 40 - 10,
		3: 30,
		4: 10,
		5: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %d, want %d", id, self[id], w)
		}
	}
	total, count := selfByName(spans)
	if total["wire.exchange"] != 30 || count["wire.exchange"] != 1 {
		t.Errorf("selfByName(wire.exchange) = %d over %d spans", total["wire.exchange"], count["wire.exchange"])
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.open("request", "1b", 0)
	r.close(id)
	ran := false
	r.timed("sqlparse.parse", "1b", id, func() { ran = true })
	if id != 0 || !ran {
		t.Errorf("nil recorder: id %d, ran %v", id, ran)
	}
	rec := newRecorder()
	root := rec.open("request", "1b", 0)
	rec.timed("wire.exchange", "1b", root, func() {})
	rec.close(root)
	spans := rec.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End {
		t.Errorf("recorded spans %+v", spans)
	}
}
