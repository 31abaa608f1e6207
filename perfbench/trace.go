package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: no parent
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	// Attrs carries counts measured at the same boundary, and for the
	// translate-on-miss probe the summed per-block call times (one span
	// per block call would be millions of records).
	Attrs map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and attaches attrs (which may be nil).
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Attrs = attrs
}

// timed runs f inside a span and returns f's wall time. The time is
// measured whether or not t is nil, so end-to-end and per-layer
// numbers come from the same clock reads.
func (t *tracer) timed(name string, parent int, f func()) time.Duration {
	id := t.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id, nil)
	return d
}

// total sums the durations of every closed span with the given name
// whose ancestor chain includes root (root 0 matches every span).
func (t *tracer) total(name string, root int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum int64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 && t.under(s, root) {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

// under reports whether s is root or a descendant of it; t.mu is held.
func (t *tracer) under(s span, root int) bool {
	if root == 0 {
		return true
	}
	for id := s.ID; id != 0; id = t.spans[id-1].Parent {
		if id == root {
			return true
		}
	}
	return false
}

// write saves every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
