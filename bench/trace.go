package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one replayed operation
// share a request number; parent is the id of the span that caused this
// one, or 0 for a span with no parent. Start and End are nanoseconds
// since the tracer was made.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// tracer records spans in memory around the benchmark's own calls into
// each layer; they are written out when the run ends. While off it
// records nothing (begin returns 0), so the same replay code runs
// untraced. It is used from one goroutine: the traced replay has one
// client.
type tracer struct {
	t0    time.Time
	spans []span
	off   bool
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, request int) int {
	if t.off {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: int64(time.Since(t.t0))})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id != 0 {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// us is a closed span's duration in microseconds.
func (t *tracer) us(id int) float64 {
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e3
}

// byRequest maps request number to the duration, in microseconds, of
// that request's span with the given name.
func byRequest(spans []span, name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Request] = float64(s.End-s.Start) / 1e3
		}
	}
	return out
}

// pairedMedian is the median, over the requests that have both spans, of
// a's duration minus b's: a subtraction between two calls on the same
// request, which run-to-run noise in either call's median cannot swamp.
func pairedMedian(spans []span, a, b string) float64 {
	da, db := byRequest(spans, a), byRequest(spans, b)
	var diffs []float64
	for req, v := range da {
		if w, ok := db[req]; ok {
			diffs = append(diffs, v-w)
		}
	}
	return median(diffs)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may nest, overlap
// each other, or stick out of the parent: covered time is the length of
// the union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		edge := s.Start // everything before edge is already counted
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = (s.End - s.Start) - covered
	}
	return out
}

// durationsUS collects the durations, in microseconds, of every span with
// the given name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}
