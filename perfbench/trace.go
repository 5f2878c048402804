package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced call into a layer's public function, or one phase of
// the benchmark that encloses such calls. Times are nanoseconds since the
// tracer started; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing: the untraced pass runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
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

// finish closes span id and returns its duration.
func (t *tracer) finish(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// allocs is a runtime.MemStats delta: bytes and objects allocated.
type allocs struct {
	bytes, objects uint64
}

// layerCall is the measurement of one call into a layer.
type layerCall struct {
	dur   time.Duration
	alloc allocs
}

// call runs fn inside span name. With mem set (and tracing on), the
// allocation delta around fn is taken from runtime.MemStats. Without a
// tracer it only times fn, as the untraced pass needs.
func (t *tracer) call(name string, parent int, mem bool, fn func() error) (layerCall, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return layerCall{dur: time.Since(start)}, err
	}
	var before runtime.MemStats
	if mem {
		runtime.ReadMemStats(&before)
	}
	id := t.begin(name, parent)
	err := fn()
	lc := layerCall{dur: t.finish(id)}
	if mem {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		lc.alloc = allocs{bytes: after.TotalAlloc - before.TotalAlloc, objects: after.Mallocs - before.Mallocs}
	}
	return lc, err
}

// selfStat is one span name's aggregate in the summary.
type selfStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_ms"`
	Self  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover (children of
// the load generator's goroutines overlap, so covered time is a union).
func selfTimes(spans []span) []selfStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*selfStat)
	for _, s := range spans {
		st, ok := agg[s.Name]
		if !ok {
			st = &selfStat{Name: s.Name}
			agg[s.Name] = st
		}
		dur := s.End - s.Start
		st.Count++
		st.Total += float64(dur) / 1e6
		st.Self += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// layerOf is a span name's layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// traceReport is what the traced run writes to its trace file.
type traceReport struct {
	Host     hostInfo           `json:"host"`
	Spans    []span             `json:"spans"`
	Summary  []selfStat         `json:"self_time"`
	Overhead map[string]float64 `json:"tracing_overhead"`
}

// writeSummary prints the per-layer self-time table and the tracing
// overhead (traced minus untraced) of every end-to-end metric.
func writeSummary(w io.Writer, stats []selfStat, untraced, traced map[string]metric) {
	byLayer := make(map[string]float64)
	var layers []string
	for _, st := range stats {
		l := layerOf(st.Name)
		if _, ok := byLayer[l]; !ok {
			layers = append(layers, l)
		}
		byLayer[l] += st.Self
	}
	sort.Strings(layers)
	fmt.Fprintf(w, "self time by layer:\n")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-14s %12.3f ms\n", l, byLayer[l])
	}
	fmt.Fprintf(w, "self time by span:\n")
	for _, st := range stats {
		fmt.Fprintf(w, "  %-34s %7d calls %12.3f ms total %12.3f ms self\n", st.Name, st.Count, st.Total, st.Self)
	}
	fmt.Fprintf(w, "tracing overhead (traced - untraced):\n")
	for _, name := range sortedKeys(untraced) {
		u, t := untraced[name], traced[name]
		fmt.Fprintf(w, "  %-24s %+14.6f %s (untraced %.6f, traced %.6f)\n", name, t.Value-u.Value, u.Unit, u.Value, t.Value)
	}
}

// writeTraceFile stores the spans, the self-time summary and the overhead.
func writeTraceFile(path string, rep traceReport) error {
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace file: %w", err)
	}
	return nil
}
