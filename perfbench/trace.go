package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer's exported function. Spans of one
// unit of work (a session, a stream, a request) share unit; parent links
// the span that caused it (-1 for a unit's root). Derived spans are
// children whose duration the layer reported itself (profile phase
// timings) rather than the benchmark timing them; probe spans re-run a
// layer's inner call outside the unit to expose work the outer call does
// internally, and take no part in reconciliation.
type span struct {
	Name    string        `json:"name"`
	Unit    int           `json:"unit"`
	Parent  int           `json:"parent"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
	Derived bool          `json:"derived,omitempty"`
	Probe   bool          `json:"probe,omitempty"`
	// cursor is where the next derived child is laid out.
	cursor time.Duration
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory for one single-goroutine replay. A nil
// *tracer records nothing, which is how the same replay code runs
// untraced.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []int
	unit   int
	probe  bool
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	at := t.now()
	t.spans = append(t.spans, span{Name: name, Unit: t.unit, Parent: parent, Start: at, cursor: at, Probe: t.probe})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack)
	t.spans[t.stack[n-1]].End = t.now()
	t.stack = t.stack[:n-1]
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

// derive records a child of the innermost open span whose duration d a
// layer reported itself; derived children are laid out back to back
// from the parent's start.
func (t *tracer) derive(name string, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	p := t.stack[len(t.stack)-1]
	at := t.spans[p].cursor
	t.spans[p].cursor = at + d
	t.spans = append(t.spans, span{Name: name, Unit: t.unit, Parent: p, Start: at, End: at + d, Derived: true, Probe: t.probe})
}

// probing marks the spans opened inside fn as probes.
func (t *tracer) probing(fn func()) {
	if t == nil {
		return
	}
	t.probe = true
	fn()
	t.probe = false
}

// selfTimes returns every span's duration minus its children's.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur()
		if p := t.spans[i].Parent; p >= 0 {
			self[p] -= t.spans[i].dur()
		}
	}
	return self
}

// layer names the layer a span's self time belongs to: the handler
// spans (op.*) time the daemon's own glue between layer calls.
func (s *span) layer() string {
	if strings.HasPrefix(s.Name, "op.") {
		return "daemon.handler"
	}
	return s.Name
}

// layerSums folds self times by layer over the non-probe spans (probe ==
// false) or the probe spans (probe == true), skipping unit roots. Values
// are milliseconds.
func (t *tracer) layerSums(probe bool) map[string]float64 {
	self := t.selfTimes()
	out := map[string]float64{}
	for i, s := range t.spans {
		if s.Probe != probe || (s.Parent < 0 && !s.Probe) {
			continue
		}
		out[s.layer()] += float64(self[i]) / float64(time.Millisecond)
	}
	return out
}

// unitLayerSelf returns, per unit and layer, the summed self time (ms)
// of every non-probe, non-root span: the part of the unit each layer
// accounts for.
func (t *tracer) unitLayerSelf() map[int]map[string]float64 {
	self := t.selfTimes()
	out := map[int]map[string]float64{}
	for i, s := range t.spans {
		if s.Parent < 0 || s.Probe {
			continue
		}
		if out[s.Unit] == nil {
			out[s.Unit] = map[string]float64{}
		}
		out[s.Unit][s.layer()] += float64(self[i]) / float64(time.Millisecond)
	}
	return out
}

// count returns how many non-derived spans carry name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name && !s.Derived {
			n++
		}
	}
	return n
}

// write dumps the spans as JSON to path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
