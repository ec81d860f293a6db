package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Times are nanoseconds since the recorder began.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root span
	Name    string `json:"name"`   // "<layer>.<call>", e.g. "wire.exchange"
	Request string `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// Layer is the part of the span name before the first dot.
func (s Span) Layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so untraced runs pay one nil check per call.
type recorder struct {
	base  time.Time
	mu    sync.Mutex
	spans []Span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// open starts a span and returns its id (0 on a nil recorder).
func (r *recorder) open(name, request string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Request: request, Start: now})
	return len(r.spans)
}

// close ends span id.
func (r *recorder) close(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.base).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name, request string, parent int, fn func()) {
	id := r.open(name, request, parent)
	fn()
	r.close(id)
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval that
// its children cover, keyed by span id.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s, children[s.ID])
	}
	return self
}

// covered measures the union of the children's intervals clipped to the
// parent's, so overlapping children are not counted twice.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// selfByName sums self time and counts spans per span name.
func selfByName(spans []Span) (total map[string]int64, count map[string]int) {
	self := selfTimes(spans)
	total = make(map[string]int64)
	count = make(map[string]int)
	for _, s := range spans {
		total[s.Name] += self[s.ID]
		count[s.Name]++
	}
	return total, count
}
