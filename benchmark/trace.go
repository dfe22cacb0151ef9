package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Times are nanoseconds since the recorder started.
// Spans of one round or request share Trace (its index); Parent is the ID
// of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Lane tells concurrent siblings apart (member index); -1 for spans
	// that run on the replay's own goroutine.
	Lane int `json:"lane"`
	// Background marks work the result does not wait for (the async
	// straggler's training); it and its children stay out of the critical
	// path and load the cores as they do in the live run.
	Background bool `json:"background,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it. Both are safe for
// concurrent use (replayed members record from their own goroutines).
func (r *recorder) begin(name string, parent, trace, lane int) int {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	bg := parent != 0 && r.spans[parent-1].Background
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Start: now, End: now, Lane: lane, Background: bg})
	r.mu.Unlock()
	return id
}

// beginBackground opens a root span the result does not wait for.
func (r *recorder) beginBackground(name string, trace, lane int) int {
	id := r.begin(name, 0, trace, lane)
	r.mu.Lock()
	r.spans[id-1].Background = true
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// do records fn as one span.
func (r *recorder) do(name string, parent, trace, lane int, fn func()) {
	id := r.begin(name, parent, trace, lane)
	fn()
	r.end(id)
}

// ms returns a closed span's duration in milliseconds.
func (r *recorder) ms(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return float64(r.spans[id-1].dur()) / 1e6
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children that overlap each other
// (concurrent members) are counted once, and a child is clipped to its
// parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi) the union of kids' intervals covers.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			if x[1] > curHi {
				curHi = x[1]
			}
		default:
			sum += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		sum += curHi - curLo
	}
	return sum
}

// laneKey names one span name within one trace.
type laneKey struct {
	trace int
	name  string
}

// longestLane sums value over the spans of each (trace, name) lane by lane
// and keeps the longest lane, in milliseconds: spans of one name on
// different lanes ran side by side, so the longest lane is what the result
// waited for; spans on one lane add up. Background spans are left out.
func longestLane(spans []span, value func(span) int64) map[laneKey]float64 {
	lanes := map[laneKey]map[int]int64{}
	for _, s := range spans {
		if s.Background {
			continue
		}
		k := laneKey{s.Trace, s.Name}
		if lanes[k] == nil {
			lanes[k] = map[int]int64{}
		}
		lanes[k][s.Lane] += value(s)
	}
	out := make(map[laneKey]float64, len(lanes))
	for k, byLane := range lanes {
		var longest int64
		for _, ns := range byLane {
			longest = max(longest, ns)
		}
		out[k] = float64(longest) / 1e6
	}
	return out
}

// blockingMs folds a replay's spans into blocking time in milliseconds:
// byName holds, for each span name, one value per trace (round, commit or
// request) in which it occurs; total holds one critical-path sum per trace.
// Self time is used, so a parent's entry excludes what its children already
// account for. Root spans are left out: a root only groups one trace's
// spans, and its self time is the replay's own glue.
func blockingMs(spans []span) (byName map[string][]float64, total []float64) {
	self := selfTimes(spans)
	folded := longestLane(spans, func(s span) int64 {
		if s.Parent == 0 {
			return 0
		}
		return self[s.ID]
	})
	byName = map[string][]float64{}
	perTrace := map[int]float64{}
	for k, ms := range folded {
		byName[k.name] = append(byName[k.name], ms)
		perTrace[k.trace] += ms
	}
	for _, ms := range perTrace {
		total = append(total, ms)
	}
	return byName, total
}

// longestLaneMs returns, per trace, the total duration (children included)
// of the named spans on the lane where that total is longest.
func longestLaneMs(spans []span, name string) []float64 {
	var out []float64
	for k, ms := range longestLane(spans, span.dur) {
		if k.name == name {
			out = append(out, ms)
		}
	}
	return out
}

// writeTrace writes the spans and their self times to
// <dir>/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	self := selfTimes(spans)
	type outSpan struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	rows := make([]outSpan, len(spans))
	for i, s := range spans {
		rows[i] = outSpan{span: s, SelfNs: self[s.ID]}
	}
	raw, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Spans    []outSpan `json:"spans"`
	}{workload, rows})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}
