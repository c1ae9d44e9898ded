package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Start and End are nanoseconds since the tracer was
// made; Parent is the index of the span that caused it (-1 for a root);
// spans of one job share Job.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Job    int    `json:"job"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// tracing off: begin and end cost one nil check.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, job int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Job: job})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover. Children may nest, touch or overlap;
// covered time is the union of their intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// seconds sums the time of job's spans called name.
func (t *tracer) seconds(name string, job int) float64 {
	if t == nil {
		return 0
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name && s.Job == job {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span  `json:"spans"`
		Self  []int64 `json:"self_ns"`
	}{t.spans, selfTimes(t.spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
