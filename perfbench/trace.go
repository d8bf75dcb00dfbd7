package main

import (
	"sort"
	"sync"
	"time"
)

// A lane is the span and sample log of one driving goroutine. Only its
// goroutine writes to it; the run merges lanes after joining them, so
// recording takes no lock.
//
// Every timed call goes through begin/end whether or not tracing is on,
// so the untraced run measures exactly the interval the traced run
// attributes; with tracing off the lane keeps the samples but no spans.
type lane struct {
	name    string
	id      int64
	epoch   time.Time // the run's time origin, shared by all lanes
	tracing bool
	seq     int64
	spans   []span
	samples map[string]samples
	start   time.Time
	stop    time.Time
}

// span is one timed interval: a public call into the warehouse or a
// phase of the benchmark around such calls. Times are nanoseconds since
// the run's origin. Parent is 0 for a top-level span; Req groups the
// spans of one request (0 outside requests).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Lane   string `json:"lane"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// open is a span in progress.
type open struct {
	id, parent, req int64
	name            string
	t0              time.Time
}

func newLane(name string, id int64, epoch time.Time, tracing bool) *lane {
	return &lane{name: name, id: id, epoch: epoch, tracing: tracing,
		samples: map[string]samples{}, start: time.Now()}
}

// begin opens a span under parent (0 for top level) in request req.
func (l *lane) begin(name string, parent, req int64) open {
	o := open{parent: parent, req: req, name: name}
	if l.tracing {
		l.seq++
		o.id = l.id<<40 | l.seq
	}
	o.t0 = time.Now()
	return o
}

// end closes the span and returns its duration.
func (l *lane) end(o open) time.Duration {
	t1 := time.Now()
	d := t1.Sub(o.t0)
	if l.tracing {
		l.spans = append(l.spans, span{ID: o.id, Parent: o.parent, Req: o.req, Lane: l.name, Name: o.name,
			Start: int64(o.t0.Sub(l.epoch)), End: int64(t1.Sub(l.epoch))})
	}
	return d
}

// add records one raw sample under a metric name.
func (l *lane) add(name string, v float64) {
	l.samples[name] = append(l.samples[name], v)
}

// close marks the end of the lane's wall time.
func (l *lane) close() { l.stop = time.Now() }

// coverage is the share of the lane's wall time covered by its
// top-level spans.
func (l *lane) coverage() float64 {
	var top int64
	for _, s := range l.spans {
		if s.Parent == 0 {
			top += s.End - s.Start
		}
	}
	return ratio(float64(top), float64(l.stop.Sub(l.start).Nanoseconds()))
}

// spanCost estimates the cost of recording one span with tracing on,
// minus the same begin/end pair with tracing off, in nanoseconds (the
// median of several timed loops).
func spanCost() float64 {
	const n = 20000
	loop := func(tracing bool) float64 {
		l := newLane("calibrate", 1, time.Now(), tracing)
		l.spans = make([]span, 0, n)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			l.end(l.begin("x", 0, 0))
		}
		return float64(time.Since(t0).Nanoseconds()) / n
	}
	var diffs samples
	for i := 0; i < 7; i++ {
		diffs = append(diffs, loop(true)-loop(false))
	}
	c := diffs.quantile(0.5)
	if c < 0 {
		c = 0
	}
	return c
}

// fillSelfTimes sets each span's self time: its duration minus the part
// of its interval that its children (from any lane) cover.
func fillSelfTimes(spans []span) {
	children := map[int64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	flush := func() {
		a, b := max(curLo, lo), min(curHi, hi)
		if b > a {
			total += b - a
		}
	}
	for _, x := range iv {
		if curHi < 0 || x[0] > curHi {
			if curHi >= 0 {
				flush()
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	flush()
	return total
}

// spanSummary aggregates spans by name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func summarizeSpans(spans []span) []spanSummary {
	by := map[string]*spanSummary{}
	for _, s := range spans {
		e := by[s.Name]
		if e == nil {
			e = &spanSummary{Name: s.Name}
			by[s.Name] = e
		}
		e.Count++
		e.TotalMs += float64(s.End-s.Start) / 1e6
		e.SelfMs += float64(s.Self) / 1e6
	}
	out := make([]spanSummary, 0, len(by))
	for _, e := range by {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// laneSet hands out lanes and merges them when the run ends.
type laneSet struct {
	mu      sync.Mutex
	epoch   time.Time
	tracing bool
	lanes   []*lane
}

func (ls *laneSet) newLane(name string) *lane {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	l := newLane(name, int64(len(ls.lanes)+1), ls.epoch, ls.tracing)
	ls.lanes = append(ls.lanes, l)
	return l
}
