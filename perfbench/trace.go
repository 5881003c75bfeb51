package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// recorder is the traced run's observer. It wraps the stage histograms
// (core.Config.Stages) and the notify hook (System.SetNotifyHook), keeps
// every observation as a span in memory, and forwards each one to what it
// wraps, so /metrics reads the same in a traced run.
type recorder struct {
	next   obs.StageTimer
	fanout *obs.Histogram

	mu     sync.Mutex
	spans  []span
	notify []span
}

// span is one observed interval: a pipeline stage of a query, or one
// notify fan-out batch (stage "notify", mode = push reason).
type span struct {
	stage, mode string
	grouped     bool
	start, end  time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// fanoutMetric is the serving layer's notify fan-out histogram; the
// registry's get-or-create lookup returns the one the server registered.
const fanoutMetric = "verdict_notify_fanout_seconds"

func newRecorder(next obs.StageTimer, reg *obs.Registry) *recorder {
	return &recorder{next: next, fanout: reg.Histogram(fanoutMetric, "", nil)}
}

// ObserveStage implements obs.StageTimer.
func (r *recorder) ObserveStage(st obs.Stage, d time.Duration) {
	end := time.Now()
	r.next.ObserveStage(st, d)
	r.mu.Lock()
	r.spans = append(r.spans, span{stage: st.Name, mode: st.Mode, grouped: st.Grouped, start: end.Add(-d), end: end})
	r.mu.Unlock()
}

func (r *recorder) observeNotify(reason string, d time.Duration) {
	end := time.Now()
	r.fanout.Observe(d.Seconds())
	r.mu.Lock()
	r.notify = append(r.notify, span{stage: "notify", mode: reason, start: end.Add(-d), end: end})
	r.mu.Unlock()
}

// snapshot returns copies of the recorded spans.
func (r *recorder) snapshot() (stages, notify []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...), append([]span(nil), r.notify...)
}

// attribution maps spans onto the client requests whose [start, end]
// interval contains them. A span inside exactly one request's interval is
// that request's; a span inside several is ambiguous and only counts
// toward per-stage aggregates.
type attribution struct {
	owned     map[*call][]span
	ambiguous map[*call]bool // the request contains a span it may not own
	inCalls   []span         // spans contained in at least one request
}

func attribute(calls []*call, spans []span) attribution {
	a := attribution{owned: map[*call][]span{}, ambiguous: map[*call]bool{}}
	sorted := append([]*call(nil), calls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start.Before(sorted[j].start) })
	var longest time.Duration
	for _, c := range sorted {
		if d := c.latency(); d > longest {
			longest = d
		}
	}
	for _, sp := range spans {
		// Only requests that started at most `longest` before the span can
		// contain it; binary search the first such request.
		lo := sort.Search(len(sorted), func(i int) bool {
			return !sorted[i].start.Before(sp.start.Add(-longest))
		})
		var holders []*call
		for i := lo; i < len(sorted) && !sorted[i].start.After(sp.start); i++ {
			if c := sorted[i]; !sp.end.After(c.end) {
				holders = append(holders, c)
			}
		}
		switch len(holders) {
		case 0:
			continue
		case 1:
			a.owned[holders[0]] = append(a.owned[holders[0]], sp)
		default:
			for _, c := range holders {
				a.ambiguous[c] = true
			}
		}
		a.inCalls = append(a.inCalls, sp)
	}
	return a
}

// overheads returns, for each successful request whose spans are all
// unambiguously its own, its latency minus those spans in microseconds:
// the time the serving layer adds around the pipeline stages.
func (a attribution) overheads() []float64 {
	var out []float64
	for c, spans := range a.owned {
		if !c.ok || a.ambiguous[c] {
			continue
		}
		d := c.latency()
		for _, sp := range spans {
			d -= sp.dur()
		}
		out = append(out, us(d))
	}
	return out
}

// stageDurations returns the durations, in microseconds, of the spans of
// one stage and mode.
func stageDurations(spans []span, stage, mode string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.stage == stage && sp.mode == mode {
			out = append(out, us(sp.dur()))
		}
	}
	return out
}
