package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer: its name (the layer metric it
// feeds), its interval in nanoseconds since the tracer started, the
// index of the enclosing span (-1 for a root) and the trial it belongs
// to (-1 for set-up work).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Trial  int    `json:"trial"`
}

// tracer records spans in memory. A nil or disabled tracer makes
// begin/end no-ops, so the untraced run pays one branch per call site
// and never reads the clock for tracing.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now()}
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string, trial int) {
	if !t.on {
		return
	}
	parent := -1
	if k := len(t.stack); k > 0 {
		parent = t.stack[k-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Trial: trial})
}

// end closes the innermost open span.
func (t *tracer) end() {
	if !t.on {
		return
	}
	k := len(t.stack) - 1
	t.spans[t.stack[k]].End = int64(time.Since(t.t0))
	t.stack = t.stack[:k]
}

// selfTimes returns each span name's total self time in milliseconds:
// a span's duration minus the durations of its direct children (spans
// nest strictly and run one after another, so the children's union is
// their sum). Timed selects the spans of timed trials; otherwise only
// set-up spans (trial -1) count.
func (t *tracer) selfTimes(timed bool) map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		if (s.Trial >= 0) == timed {
			out[s.Name] += float64(s.End-s.Start-child[i]) / 1e6
		}
	}
	return out
}

// durations returns each span's total duration in milliseconds under
// the given name, keyed by trial id.
func (t *tracer) durations(name string) map[int]float64 {
	out := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Trial] += float64(s.End-s.Start) / 1e6
		}
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
