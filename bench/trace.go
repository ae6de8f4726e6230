package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from bench into a layer. Spans of one
// operation share Op; Parent is 0 for the operation's root span.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent"`
	Op     string           `json:"op"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps every span in memory until the workload ends. A nil
// *tracer (the untraced run) makes every call below a no-op, so the
// end-to-end metrics never pay for tracing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
	ids   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace collects the spans of one operation on the goroutine that
// runs it and hands them to the tracer when the operation finishes.
type opTrace struct {
	t     *tracer
	op    string
	spans []span
	stack []int
}

// op opens an operation of the given class together with its root
// span, which carries the class as its name.
func (t *tracer) op(class string) *opTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.ops++
	seq := t.ops
	t.mu.Unlock()
	o := &opTrace{t: t, op: fmt.Sprintf("%s#%d", class, seq)}
	o.begin(class)
	return o
}

func (o *opTrace) begin(name string) {
	if o == nil {
		return
	}
	o.t.mu.Lock()
	o.t.ids++
	id := o.t.ids
	o.t.mu.Unlock()
	var parent int64
	if n := len(o.stack); n > 0 {
		parent = o.spans[o.stack[n-1]].ID
	}
	o.stack = append(o.stack, len(o.spans))
	o.spans = append(o.spans, span{ID: id, Parent: parent, Op: o.op, Name: name, Start: int64(time.Since(o.t.epoch))})
}

// end closes the innermost open span; counts are the layer's counter
// snapshot at this boundary, as name/value pairs.
func (o *opTrace) end(counts ...any) {
	if o == nil {
		return
	}
	n := len(o.stack)
	s := &o.spans[o.stack[n-1]]
	o.stack = o.stack[:n-1]
	s.End = int64(time.Since(o.t.epoch))
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = map[string]int64{}
		}
		s.Counts[counts[i].(string)] = counts[i+1].(int64)
	}
}

// finish closes the root span and publishes the operation.
func (o *opTrace) finish() {
	if o == nil {
		return
	}
	for len(o.stack) > 0 {
		o.end()
	}
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.spans...)
	o.t.mu.Unlock()
}

// durationsMs lists the durations of every span with the given name;
// classes, when given, keeps only spans of operations of those classes.
func (t *tracer) durationsMs(name string, classes ...string) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		class, _, _ := strings.Cut(s.Op, "#")
		if s.Name == name && (len(classes) == 0 || slices.Contains(classes, class)) {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes gives, per span name, the time spent in spans of that name
// that no child span covers: a span's duration minus the union of its
// children's intervals.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[int64][]*span{}
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// traceFile is what bench/out/trace-<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Env      environment        `json:"env"`
	SelfMs   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, env environment) (string, error) {
	tf := traceFile{Workload: workload, Env: env, SelfMs: map[string]float64{}, Spans: t.spans}
	for name, d := range selfTimes(t.spans) {
		tf.SelfMs[name] = float64(d) / 1e6
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
