package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public call. Spans of one request share req; parent is the id of the
// enclosing span (0 at the top).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span id, so children can name their parent before
// the parent ends.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a new span and returns its id.
func (t *tracer) timed(parent, req int64, name string, fn func()) int64 {
	if t == nil {
		fn()
		return 0
	}
	id := t.newID()
	start := time.Now()
	fn()
	t.add(id, parent, req, name, start, time.Now())
	return id
}

func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in milliseconds: its duration
// minus the part of it that its child spans cover.
func selfTimes(spans []span) map[int64]float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int64]float64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, end int64
		end = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, end), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.ID] = float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// layerTimes groups self times by span name.
func layerTimes(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], self[s.ID])
	}
	return out
}
