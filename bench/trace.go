package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// harness around the call (no package is edited to emit it). Spans of
// one operation share a root through Parent.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer holds the spans of one workload in memory until the run ends.
// A nil tracer records nothing, so code shared between the untraced and
// the traced pass calls it unconditionally.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// start opens a span under parent (0 = a root) and returns its id.
func (t *tracer) start(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload,
		Layer: layer, Name: name, StartNS: now,
	})
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// selfTimes sums, per layer, each span's duration minus the part of it
// that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	if t == nil {
		return self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Layer] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// totals sums span durations by span name.
func (t *tracer) totals() map[string]time.Duration {
	dur := map[string]time.Duration{}
	t.each(func(s span) { dur[s.Name] += time.Duration(s.EndNS - s.StartNS) })
	return dur
}

// each calls f on every span recorded so far.
func (t *tracer) each(f func(s span)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		f(s)
	}
}

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}
