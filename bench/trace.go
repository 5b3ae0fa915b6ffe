package main

// The benchmark's own span recorder. A traced run (-trace 1) wraps every
// call the benchmark makes into a layer of the program — an exported
// function or an HTTP handler — in a span: name, start, end, the span that
// caused it, and the run it belongs to. Spans stay in memory until the run
// ends; -out writes them. Per-layer numbers are span self-times: a span's
// duration minus the part of it its child spans cover.
//
// The layer a span is charged to is the part of its name before the first
// dot ("server.handler" → server), matching the module names under
// internal/. Nothing inside the program is instrumented here: spans inside
// the layers are a later change (ROADMAP, request-scoped timing).

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call. IDs are 1-based indexes into tracer.spans;
// parent 0 means a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	// StartNs and EndNs are nanoseconds since the tracer was created.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
}

func (s span) duration() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer collects spans. A nil *tracer is the untraced run: start returns
// 0 and end does nothing, without reading the clock.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run, Name: name, StartNs: now, EndNs: -1,
	})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's length (0 untraced).
func (t *tracer) do(name string, parent int, fn func()) time.Duration {
	id := t.start(name, parent)
	fn()
	t.end(id)
	if id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].duration()
}

// finished returns a copy of every closed span.
func (t *tracer) finished() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.EndNs >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time, keyed by span id: its duration
// minus the union of its children's intervals, clipped to the span. The
// union (not the sum) is what keeps concurrent children — two ranks, two
// render workers — from driving a parent's self time negative.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// selfByName groups self times (as selfTimes computed them, in seconds) by
// span name.
func selfByName(spans []span, self map[int]time.Duration) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], self[s.ID].Seconds())
	}
	return out
}
