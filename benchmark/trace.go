package main

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the id of
// the span that caused it (0 for a root); times are offsets from the
// tracer's epoch.
type span struct {
	Name       string
	ID, Parent int64
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer still
// times spans (every unit's latency comes from the same calls) but
// records nothing, so untraced runs pay only the clock reads.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started but not yet ended.
type open struct {
	name   string
	id     int64
	parent int64
	start  time.Time
}

// begin starts a span under parent (0 for a root).
func (t *tracer) begin(name string, parent int64) open {
	o := open{name: name, parent: parent, start: time.Now()}
	if t != nil {
		o.id = t.nextID.Add(1)
	}
	return o
}

// end closes o, records it when tracing, and returns its duration.
func (t *tracer) end(o open) time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if t != nil {
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: o.name, ID: o.id, Parent: o.parent,
			Start: o.start.Sub(t.epoch), End: now.Sub(t.epoch)})
		t.mu.Unlock()
	}
	return d
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := slices.Clone(t.spans)
	slices.SortFunc(out, func(a, b span) int {
		if a.Start != b.Start {
			return int(a.Start - b.Start)
		}
		return int(a.ID - b.ID)
	})
	return out
}

// children groups spans by parent id.
func children(spans []span) map[int64][]span {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTimes returns each span's duration minus the part of it that its
// children cover, keyed by span id.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := children(spans)
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		covered := time.Duration(0)
		cursor := s.Start
		for _, c := range kids[s.ID] { // sorted by start
			lo, hi := max(c.Start, cursor), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// checkNesting reports the first span that does not lie inside its
// parent's interval, or that names a parent never recorded.
func checkNesting(spans []span) error {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return fmt.Errorf("span %q (%d) names missing parent %d", s.Name, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %q [%v,%v] escapes parent %q [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	return nil
}

// writeChrome writes spans in Chrome trace-event format (it opens in
// Perfetto). Concurrent root-level work is spread over lanes so that
// every lane's events nest; a span inherits its parent's lane.
func writeChrome(w io.Writer, spans []span) error {
	self := selfTimes(spans)
	lane := make(map[int64]int, len(spans))
	var laneEnd []time.Duration // per lane: end of the last top-level span placed there
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans { // parents start no later than their children
		l, ok := lane[s.Parent]
		if !ok || siblingsOverlap(spans, s) { // roots have no parent lane
			l = -1
			for i, e := range laneEnd {
				if e <= s.Start {
					l = i
					break
				}
			}
			if l < 0 {
				l = len(laneEnd)
				laneEnd = append(laneEnd, 0)
			}
			laneEnd[l] = s.End
		}
		lane[s.ID] = l
		events = append(events, event{Name: s.Name, Ph: "X",
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3, PID: 1, TID: l,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "self_us": float64(self[s.ID]) / 1e3}})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// siblingsOverlap reports whether s overlaps another child of its
// parent, which happens where a parent fans work out to several
// workers (a pass over its units); such children need lanes of their own.
func siblingsOverlap(spans []span, s span) bool {
	for _, o := range spans {
		if o.Parent == s.Parent && o.ID != s.ID && o.Start < s.End && s.Start < o.End {
			return true
		}
	}
	return false
}
