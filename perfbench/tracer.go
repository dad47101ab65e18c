package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code. Spans of layer "e2e" are end-to-end intervals (a grid, a job);
// every other span is a layer call that may fall inside one.
type span struct {
	Layer string `json:"layer"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the tracer started
	End   int64  `json:"end_ns"`
	// N is the work the call did, in the unit its metric divides by
	// (instructions, bytes); 0 when the call has none.
	N int64 `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, which is how the untraced run stays free of
// tracing cost.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64 // counters read at layer boundaries
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// count adds v to a named counter.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// record adds a span that started at start and ends now.
func (t *tracer) record(layer, name string, start time.Time, n int64) time.Duration {
	end := time.Now()
	d := end.Sub(start)
	if t == nil {
		return d
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n})
	t.mu.Unlock()
	return d
}

// recordAt adds a span with explicit bounds.
func (t *tracer) recordAt(layer, name string, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n})
	t.mu.Unlock()
}

// pick returns the spans of one layer and name.
func (t *tracer) pick(layer, name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// total sums the durations and work counts of one layer call.
func (t *tracer) total(layer, name string) (time.Duration, int64, int) {
	var d time.Duration
	var n int64
	ss := t.pick(layer, name)
	for _, s := range ss {
		d += s.dur()
		n += s.N
	}
	return d, n, len(ss)
}

// unattributedShare is the share of all end-to-end intervals that no
// layer span covers: the benchmark's own loop, scheduling gaps and any
// work the recorded layers miss.
func (t *tracer) unattributedShare() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var e2e, layer []span
	for _, s := range t.spans {
		if s.Layer == "e2e" {
			e2e = append(e2e, s)
		} else {
			layer = append(layer, s)
		}
	}
	sort.Slice(layer, func(i, j int) bool { return layer[i].Start < layer[j].Start })
	var total, uncovered int64
	for _, r := range e2e {
		total += r.End - r.Start
		covered := int64(0)
		cur := r.Start
		for _, s := range layer {
			if s.Start >= r.End {
				break
			}
			lo, hi := max(s.Start, cur), min(s.End, r.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		uncovered += r.End - r.Start - covered
	}
	if total == 0 {
		return 0
	}
	return float64(uncovered) / float64(total)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
