package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced run. Start and End are
// nanoseconds since the tracer's origin; Parent is the index of the
// enclosing span (-1 for an operation's root); Req identifies the operation
// (sweep or request) the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in a slice preallocated for the run; nothing is
// written until the run ends. A nil *tracer records nothing.
//
// Spans are recorded from the ledger's own timestamps around calls into
// each layer. Where a layer reports only a duration (core.Breakdown
// phases, the server's decode and compute headers) the child span is laid
// out from its parent's start, after its earlier siblings.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity)}
}

// add records [start, end) and returns the span's index.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	return t.addNs(name, start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds(), parent, req)
}

func (t *tracer) addNs(name string, start, end int64, parent int, req int64) int {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// children lays out duration-only child spans of parent back to back from
// the parent's start.
func (t *tracer) children(parent int, names []string, durs []time.Duration) []int {
	at := t.spans[parent].Start
	req := t.spans[parent].Req
	ids := make([]int, len(names))
	for i, name := range names {
		ids[i] = t.addNs(name, at, at+durs[i].Nanoseconds(), parent, req)
		at += durs[i].Nanoseconds()
	}
	return ids
}

// selfTimes returns each span's duration minus the time its children
// cover (children never overlap one another by construction).
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// unaccounted is the share of root (operation) time that no child span
// covers: time the trace cannot attribute to any layer.
func (t *tracer) unaccounted() float64 {
	self := t.selfTimes()
	var lost, total int64
	for i, s := range t.spans {
		if s.Parent < 0 {
			lost += self[i]
			total += s.End - s.Start
		}
	}
	return ratio(float64(lost), float64(total))
}

// selfByName sums self time per span name, for the traced run's summary.
func (t *tracer) selfByName() map[string]time.Duration {
	self := t.selfTimes()
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// write stores the spans as DIR/spans-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, "spans-"+workload+".json"))
	if err != nil {
		return fmt.Errorf("spans file: %w", err)
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(t.spans); err != nil {
		f.Close()
		return fmt.Errorf("spans file: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans file: %w", err)
	}
	return f.Close()
}
