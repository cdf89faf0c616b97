package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around its own calls (nothing inside the program is traced).
// Times are nanoseconds since the tracer started; End is -1 while the
// call is still running.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Rep    string `json:"rep"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; they are written out when the
// benchmark ends. A span's ID is its index plus one.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent int64, rep string) int64 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: rep, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int64) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// scope is one traced rep. Spans the rep's own goroutine opens nest
// under the innermost span it has open; spans opened from goroutines
// inside the program (model runs on harness workers, sink emits, lease
// round trips on the farm worker) attach to whatever span the rep
// goroutine has open at that moment. A nil scope records nothing, so
// untraced reps run the same code with no spans.
type scope struct {
	tr  *tracer
	rep string
	cur atomic.Int64
}

func (t *tracer) scope(rep string) *scope { return &scope{tr: t, rep: rep} }

// open starts a span on the rep's goroutine and returns its end.
func (s *scope) open(name string) func() {
	if s == nil {
		return func() {}
	}
	parent := s.cur.Load()
	id := s.tr.begin(name, parent, s.rep)
	s.cur.Store(id)
	return func() {
		s.tr.end(id)
		s.cur.Store(parent)
	}
}

// leaf starts a span from any goroutine, under the rep's current span,
// and returns its ID and end.
func (s *scope) leaf(name string) (int64, func()) {
	return s.leafUnder(s.cur.Load(), name)
}

// leafUnder starts a span under an explicit parent.
func (s *scope) leafUnder(parent int64, name string) (int64, func()) {
	id := s.tr.begin(name, parent, s.rep)
	return id, func() { s.tr.end(id) }
}

// selfTimes computes every span's self time in nanoseconds. Each instant
// of a root span is given to the innermost spans open at that instant,
// shared equally when several are (spans from parallel workers), so the
// self times of a root's tree sum to the root's duration. Child spans
// are clipped to their root, and a span still running counts until the
// root's end.
func selfTimes(spans []span) (map[int64]float64, error) {
	rootOf := make([]int64, len(spans))
	children := make(map[int64][]int64)
	for i, s := range spans {
		if s.ID != int64(i+1) {
			return nil, fmt.Errorf("span %d is stored at position %d", s.ID, i+1)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent < 1 || s.Parent > int64(len(spans)) {
			return nil, fmt.Errorf("span %d (%s) has no parent span %d", s.ID, s.Name, s.Parent)
		}
		if s.Parent >= s.ID {
			return nil, fmt.Errorf("span %d (%s) starts before its parent %d", s.ID, s.Name, s.Parent)
		}
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	for i, s := range spans {
		rootOf[i] = s.ID
		if s.Parent != 0 {
			rootOf[i] = rootOf[s.Parent-1]
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, r := range spans {
		if r.Parent != 0 {
			continue
		}
		if r.End < 0 {
			return nil, fmt.Errorf("root span %d (%s) never ended", r.ID, r.Name)
		}
		var tree []int64
		for queue := []int64{r.ID}; len(queue) > 0; queue = queue[1:] {
			tree = append(tree, queue[0])
			queue = append(queue, children[queue[0]]...)
		}
		attribute(spans, tree, r, self)
	}
	return self, nil
}

// attribute sweeps one root's tree, giving each elementary interval to
// the innermost open spans.
func attribute(spans []span, tree []int64, root span, self map[int64]float64) {
	type event struct {
		at   int64
		id   int64
		open bool
	}
	clip := func(v int64) int64 { return min(max(v, root.Start), root.End) }
	var events []event
	for _, id := range tree {
		s := spans[id-1]
		end := s.End
		if end < 0 {
			end = root.End
		}
		start, stop := clip(s.Start), clip(end)
		if stop <= start {
			continue
		}
		events = append(events, event{start, id, true}, event{stop, id, false})
	}
	sort.Slice(events, func(a, b int) bool { return events[a].at < events[b].at })
	open := make(map[int64]bool)
	for k := 0; k < len(events); {
		at := events[k].at
		for ; k < len(events) && events[k].at == at; k++ {
			if events[k].open {
				open[events[k].id] = true
			} else {
				delete(open, events[k].id)
			}
		}
		if k == len(events) || len(open) == 0 {
			continue
		}
		// Innermost: open spans with no open descendant.
		covered := make(map[int64]bool, len(open))
		for id := range open {
			for p := spans[id-1].Parent; p != 0 && !covered[p]; p = spans[p-1].Parent {
				covered[p] = true
			}
		}
		var inner []int64
		for id := range open {
			if !covered[id] {
				inner = append(inner, id)
			}
		}
		share := float64(events[k].at-at) / float64(len(inner))
		for _, id := range inner {
			self[id] += share
		}
	}
}

// checkSpans verifies the recorded spans: every parent exists, and the
// self times of each root's tree sum to the root's duration within 2%.
func checkSpans(spans []span) []string {
	self, err := selfTimes(spans)
	if err != nil {
		return []string{err.Error()}
	}
	sums := make(map[int64]float64)
	for _, s := range spans {
		r := s
		for r.Parent != 0 {
			r = spans[r.Parent-1]
		}
		sums[r.ID] += self[s.ID]
	}
	var bad []string
	for _, s := range spans {
		if s.Parent != 0 {
			continue
		}
		dur := float64(s.End - s.Start)
		if dur > 0 && math.Abs(sums[s.ID]-dur)/dur > 0.02 {
			bad = append(bad, fmt.Sprintf("spans of %s (root %d) sum to %.0fns of self time, the root lasted %.0fns", s.Rep, s.ID, sums[s.ID], dur))
		}
	}
	return bad
}
