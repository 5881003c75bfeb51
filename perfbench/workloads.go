package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/workload"
)

// sizes are the input sizes of the three workloads; the self-test runs the
// same code on tinySizes.
type sizes struct {
	traceRows   int     // base rows of both trace workloads
	traceFrac   float64 // their sample fraction
	growQueries int     // trace-grow: queries per episode (from an empty synopsis)
	fullCap     int     // trace-full: C_g
	fullFill    int     // trace-full: fill trace length (upper bound)
	fullQueries int     // trace-full: measured trace length (replayed cyclically)
	coverEvery  int     // trace-grow: coverage on every n-th answer (trace-full: all)

	ingestRows   int
	ingestFrac   float64
	partitions   int
	dashboard    int // supported trace queries on the dashboard
	batchRows    int
	rebuildEvery int // appends per /rebuild
	coverStates  int // ingest: coverage on every n-th appended state
	cyclesPerSec int // ingest: dashboard cycles per second of the window

	setups     int // trace-grow, ingest-dashboard: set-ups per untraced run (setup_s is their median)
	fullSetups int // trace-full: set-ups (with Train) per run, one per episode
}

var fullSizes = sizes{
	traceRows: 200_000, traceFrac: 0.1, growQueries: 1000,
	fullCap: 200, fullFill: 4000, fullQueries: 3000, coverEvery: 4,
	ingestRows: 1_000_000, ingestFrac: 0.2, partitions: 4, dashboard: 16,
	batchRows: 5000, rebuildEvery: 20, coverStates: 2, cyclesPerSec: 4,
	setups: 5, fullSetups: 2,
}

var tinySizes = sizes{
	traceRows: 20_000, traceFrac: 0.1, growQueries: 120,
	fullCap: 20, fullFill: 600, fullQueries: 200, coverEvery: 2,
	ingestRows: 40_000, ingestFrac: 0.2, partitions: 4, dashboard: 16,
	batchRows: 500, rebuildEvery: 3, coverStates: 2, cyclesPerSec: 6,
	setups: 2, fullSetups: 2,
}

type runOpts struct {
	workload string
	seed     int64
	window   time.Duration
	sz       sizes
}

// run is everything one measured run of a workload produced.
type run struct {
	setups   []time.Duration
	active   time.Duration // serving time inside the measured window
	calls    []*call       // timed requests
	answers  []answer      // one-shot answers, stream chunks and pushes
	pushLags []float64     // ms from sending /append to its push arriving
	subReqs  int           // /subscribe requests (counted as attempted)
	subFails int

	audit    auditor
	cov      coverage
	heapMB   float64
	train    time.Duration
	episodes int

	phases         phases   // wall time outside the window, by phase
	maxFuncEntries int      // synopsis entries of the largest aggregate function
	notes          []string // one line per episode

	stats     server.StatsResponse
	metrics   map[string]float64
	spans     []span    // traced runs: stage spans inside /query requests
	notify    []span    // traced runs: notify fan-out batches
	overheads []float64 // traced runs: see attribution.overheads
}

// phases accumulates wall time spent outside the measured window.
type phases struct {
	names []string
	total map[string]time.Duration
}

func (p *phases) add(name string, since time.Time) {
	if p.total == nil {
		p.total = map[string]time.Duration{}
	}
	if _, ok := p.total[name]; !ok {
		p.names = append(p.names, name)
	}
	p.total[name] += time.Since(since)
}

func (p *phases) String() string {
	var parts []string
	for _, n := range p.names {
		parts = append(parts, fmt.Sprintf("%s %.1fs", n, p.total[n].Seconds()))
	}
	return strings.Join(parts, ", ")
}

func genTrace(n int, seed int64) []workload.TraceEntry {
	spec := workload.DefaultCustomer1TraceSpec()
	spec.Queries, spec.Seed = n, seed
	return workload.GenerateCustomer1Trace(spec)
}

// driveTrace runs clients closed-loop over the trace: each takes the next
// entry when its previous reply has arrived. With limit > 0 exactly limit
// queries are sent; otherwise entries repeat cyclically until deadline.
func driveTrace(url string, trace []workload.TraceEntry, clients, limit int, deadline time.Time) []*call {
	var next atomic.Int64
	logs := make([][]*call, clients)
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cl := newClient(url)
			defer cl.closeIdle()
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= limit) || (limit <= 0 && !time.Now().Before(deadline)) {
					return
				}
				e := i % len(trace)
				logs[k] = append(logs[k], cl.query(trace[e].SQL, e))
			}
		}(k)
	}
	wg.Wait()
	var out []*call
	for _, l := range logs {
		out = append(out, l...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// collect reads the served instance's state after its window: /stats,
// /metrics, the live heap, and (traced) the recorded spans.
func (r *run) collect(in *instance, calls []*call) error {
	var err error
	if r.stats, err = in.stats(); err != nil {
		return err
	}
	if r.metrics, err = in.metrics(); err != nil {
		return err
	}
	v := in.sys.Verdict()
	r.maxFuncEntries = 0
	for _, id := range v.FuncIDs() {
		r.maxFuncEntries = max(r.maxFuncEntries, len(v.SynopsisKeys(id)))
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.heapMB = float64(m.HeapAlloc) / 1e6
	if in.rec != nil {
		stages, notify := in.rec.snapshot()
		var queries []*call
		for _, c := range calls {
			if c.kind == kindQuery {
				queries = append(queries, c)
			}
		}
		a := attribute(queries, stages)
		r.spans = append(r.spans, a.inCalls...)
		r.overheads = append(r.overheads, a.overheads()...)
		r.notify = append(r.notify, notify...)
	}
	return nil
}

// timeTrain times one System.Train on the grown synopsis: traced runs of
// the workloads whose set-up does not train do it once, after the window.
func (r *run) timeTrain(in *instance) error {
	t0 := time.Now()
	if err := in.sys.Train(); err != nil {
		return fmt.Errorf("train: %w", err)
	}
	r.train = time.Since(t0)
	return nil
}

func supportOf(trace []workload.TraceEntry) func(int) bool {
	return func(e int) bool { return trace[e].Supported }
}

// ---- trace-grow and trace-full ----

// episodeSeed derives the inputs of one episode: each episode of a run
// serves its own generated table and trace, so a run's figures average
// over several datasets rather than hinging on one.
func episodeSeed(seed int64, ep int) int64 { return seed*7919 + int64(ep) }

// traceInputs generates one episode's base table and measured trace.
func traceInputs(o runOpts, ep, queries int) (*storage.Table, []workload.TraceEntry, error) {
	s := episodeSeed(o.seed, ep)
	base, err := workload.GenerateCustomer1(o.sz.traceRows, s)
	if err != nil {
		return nil, nil, err
	}
	return base, genTrace(queries, s+100), nil
}

// traceGrow serves the Customer1 trace from an empty synopsis with two
// clients. A run is a sequence of episodes, each a fresh set-up serving
// its whole trace once, until the window is used up; every episode sees
// the synopsis grow from empty to ~2k entries.
func traceGrow(o runOpts, traced bool) (*run, error) {
	sz := o.sz
	r := &run{}
	for ep := 0; r.active < o.window || (!traced && ep < sz.setups); ep++ {
		tg := time.Now()
		base, trace, err := traceInputs(o, ep, sz.growQueries)
		r.phases.add("inputs", tg)
		if err != nil {
			return nil, err
		}
		runtime.GC() // time the set-up, not the collection of the inputs' garbage
		t0 := time.Now()
		sample, err := aqp.BuildSample(base, sz.traceFrac, 0, episodeSeed(o.seed, ep)+1)
		if err != nil {
			return nil, err
		}
		in, err := startInstance(base, sample, core.Config{}, traced)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0))
		if r.active >= o.window {
			in.close() // a set-up timed only to reach sz.setups samples
			continue
		}
		runtime.GC() // start every window without the set-up's garbage
		w0 := time.Now()
		calls := driveTrace(in.url, trace, 2, len(trace), time.Time{})
		r.active += time.Since(w0)
		if err := r.finishTrace(o, in, calls, trace, traced, sz.coverEvery); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// traceFull serves the trace at a full synopsis: each set-up fills every
// aggregate function's synopsis to C_g and trains once, so each recorded
// answer evicts an entry and the next inference refactors the covariance
// from scratch. A run is sz.fullSetups episodes sharing the window equally.
func traceFull(o runOpts, traced bool) (*run, error) {
	sz := o.sz
	cfg := core.Config{SynopsisCap: sz.fullCap}
	r := &run{}
	var trains []time.Duration
	for ep := 0; ep < sz.fullSetups; ep++ {
		tg := time.Now()
		base, trace, err := traceInputs(o, ep, sz.fullQueries)
		r.phases.add("inputs", tg)
		if err != nil {
			return nil, err
		}
		fill := genTrace(sz.fullFill, episodeSeed(o.seed, ep)+200)
		runtime.GC()
		t0 := time.Now()
		sample, err := aqp.BuildSample(base, sz.traceFrac, 0, episodeSeed(o.seed, ep)+1)
		if err != nil {
			return nil, err
		}
		in, err := startInstance(base, sample, cfg, traced)
		if err != nil {
			return nil, err
		}
		if err := fillSynopsis(in.sys, fill, sz.fullCap); err != nil {
			in.close()
			return nil, err
		}
		t1 := time.Now()
		if err := in.sys.Train(); err != nil {
			in.close()
			return nil, fmt.Errorf("train: %w", err)
		}
		trains = append(trains, time.Since(t1))
		r.setups = append(r.setups, time.Since(t0))
		runtime.GC()
		w0 := time.Now()
		calls := driveTrace(in.url, trace, 2, 0, w0.Add(o.window/time.Duration(sz.fullSetups)))
		r.active += time.Since(w0)
		if err := r.finishTrace(o, in, calls, trace, traced, 1); err != nil {
			return nil, err
		}
	}
	r.train = medianDuration(trains)
	return r, nil
}

// finishTrace collects one trace episode's state, closes its instance and
// audits its answers. Replays and exact answers run on an oracle System
// over the episode's read-only base and sample: its views are identical to
// the served engine's, and nothing is recorded into the measured synopsis.
func (r *run) finishTrace(o runOpts, in *instance, calls []*call, trace []workload.TraceEntry, traced bool, coverEvery int) error {
	r.episodes++
	err := r.collect(in, calls)
	if err == nil && o.workload == "trace-grow" && r.maxFuncEntries >= core.DefaultSynopsisCap {
		// The workload measures growth: an evicting synopsis is trace-full.
		err = fmt.Errorf("an aggregate function reached C_g = %d synopsis entries", core.DefaultSynopsisCap)
	}
	if err == nil && traced && o.workload == "trace-grow" && r.train == 0 {
		err = r.timeTrain(in)
	}
	in.close()
	if err != nil {
		return err
	}
	oracle := newOracle(in.base, in.sample)
	answers := answersOf(calls)
	ta := time.Now()
	r.audit.audit(oracle, answers)
	r.phases.add("audit", ta)
	r.audit.checkSupport(calls, supportOf(trace))
	var picked []answer
	for i, an := range answers {
		if i%coverEvery == 0 {
			picked = append(picked, an)
		}
	}
	tc := time.Now()
	cov, err := measureCoverage(oracle, picked)
	r.phases.add("coverage", tc)
	if err != nil {
		return err
	}
	r.cov.add(cov)
	var lat []float64
	for _, c := range calls {
		lat = append(lat, ms(c.latency()))
	}
	r.notes = append(r.notes, fmt.Sprintf(
		"episode %d: %d queries, query p50 %.3f ms, p99 %.1f ms, synopsis %d entries (largest function %d), coverage %.3f of %d cells",
		r.episodes, len(calls), quantile(lat, 0.5), quantile(lat, 0.99), r.stats.Synopsis.Snippets, r.maxFuncEntries,
		share(cov.improved, cov.cells), cov.cells))
	r.calls = append(r.calls, calls...)
	r.answers = append(r.answers, answers...)
	return nil
}

// fillSynopsis executes supported fill queries in-process until every
// aggregate function's synopsis holds capacity entries.
func fillSynopsis(sys *core.System, fill []workload.TraceEntry, capacity int) error {
	full := func() bool {
		v := sys.Verdict()
		ids := v.FuncIDs()
		if len(ids) < 2 {
			return false
		}
		for _, id := range ids {
			if len(v.SynopsisKeys(id)) < capacity {
				return false
			}
		}
		return true
	}
	for i, e := range fill {
		if !e.Supported {
			continue
		}
		if _, err := sys.Execute(e.SQL); err != nil {
			return fmt.Errorf("fill %q: %w", e.SQL, err)
		}
		if i%10 == 0 && full() {
			return nil
		}
	}
	if !full() {
		return fmt.Errorf("fill trace of %d queries did not fill the synopsis to %d entries per function", len(fill), capacity)
	}
	return nil
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

// ---- ingest-dashboard ----

// panel is one dashboard query: a trace entry, sent one-shot or streamed.
type panel struct {
	entry  int
	stream bool
}

// dashboard picks the first n supported trace queries, a quarter of them
// grouped (the trace's GROUP BY share), and streams a quarter of each kind
// (the last ones picked), so every seed's dashboard has the same shape.
// The four standing SQLs are the first three ungrouped dashboard queries
// and the first grouped one.
func dashboard(trace []workload.TraceEntry, n int) (dash []panel, standing []string, err error) {
	var g, p []int
	streamed := func(picked []int, of int) bool { return len(picked) > of-of/4 }
	for i, e := range trace {
		if !e.Supported {
			continue
		}
		if strings.Contains(e.SQL, "GROUP BY") {
			if len(g) == n/4 {
				continue
			}
			g = append(g, i)
			dash = append(dash, panel{i, streamed(g, n/4)})
		} else {
			if len(p) == n-n/4 {
				continue
			}
			p = append(p, i)
			dash = append(dash, panel{i, streamed(p, n-n/4)})
		}
	}
	if len(dash) < n {
		return nil, nil, fmt.Errorf("trace too short for a %d-query dashboard", n)
	}
	return dash, []string{trace[p[0]].SQL, trace[p[1]].SQL, trace[p[2]].SQL, trace[g[0]].SQL}, nil
}

// batchBody generates one append batch and encodes it as /append JSON.
func batchBody(rows int, seed int64) ([]byte, error) {
	t, err := workload.GenerateCustomer1(rows, seed)
	if err != nil {
		return nil, err
	}
	schema := t.Schema()
	out := make([][]any, t.Rows())
	for r := range out {
		row := make([]any, schema.Len())
		for c := range row {
			if schema.Col(c).Kind == storage.Numeric {
				row[c] = t.NumAt(r, c)
			} else {
				row[c] = t.StrAt(r, c)
			}
		}
		out[r] = row
	}
	return json.Marshal(server.AppendRequest{Rows: out})
}

// ingestDashboard interleaves a fixed dashboard (three in four queries
// one-shot, the others streamed) with appends, periodic rebuilds and
// standing subscriptions. One client issues the requests; a second
// connection holds the HTTP subscription. The dashboard's queries repeat,
// so the synopsis stays small and core inference stays a minor cost.
// The table and sample grow with every append, so the run is a fixed
// number of cycles (cyclesPerSec per second of the window) rather than a
// fixed time: the served state at the end does not depend on speed.
func ingestDashboard(o runOpts, traced bool) (*run, error) {
	sz := o.sz
	tg := time.Now()
	base, err := workload.GenerateCustomer1(sz.ingestRows, o.seed)
	r := &run{}
	r.phases.add("inputs", tg)
	if err != nil {
		return nil, err
	}
	cycles := max(1, int(o.window.Seconds()*float64(sz.cyclesPerSec)))
	trace := genTrace(200, o.seed+100)
	dash, standing, err := dashboard(trace, sz.dashboard)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{NumPartitions: sz.partitions, StratumColumn: "event_date"}
	setup := func() (*instance, error) {
		sample, err := aqp.BuildSample(base, sz.ingestFrac, 0, o.seed+1)
		if err != nil {
			return nil, err
		}
		return startInstance(base, sample, cfg, traced)
	}
	n := sz.setups
	if traced {
		n = 1
	}
	var in *instance
	for k := 0; k < n; k++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		t0 := time.Now()
		if in, err = setup(); err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0))
	}
	defer in.close()

	// Eight standing subscriptions, two per SQL: one over HTTP, seven in
	// process (drained with TryNext after every write).
	r.subReqs = 1
	httpSub, err := subscribe(in.url, standing[0])
	if err != nil {
		return nil, err
	}
	defer httpSub.stop() // idempotent; runs before in.close
	type inproc struct {
		sql string
		sub *core.Subscription
	}
	var subs []inproc
	for i, sql := range standing {
		for k := 0; k < 2; k++ {
			if i == 0 && k == 0 {
				continue // the HTTP subscriber
			}
			sub, err := in.sys.Subscribe(sql, core.SubscribeOptions{})
			if err != nil {
				return nil, fmt.Errorf("subscribe %q: %w", sql, err)
			}
			subs = append(subs, inproc{sql, sub})
		}
	}
	schema := base.Schema()
	var pushAnswers []answer
	drain := func() {
		for _, s := range subs {
			for {
				upd, ok := s.sub.TryNext()
				if !ok {
					break
				}
				pushAnswers = append(pushAnswers, coreAnswer("push "+upd.Reason, s.sql, schema, upd.Result))
			}
		}
	}
	drain()

	runtime.GC()
	cl := newClient(in.url)
	var calls []*call
	appends := 0
	for cycle := 0; cycle < cycles; cycle++ {
		w0 := time.Now()
		for _, pn := range dash {
			if pn.stream {
				calls = append(calls, cl.stream(trace[pn.entry].SQL, pn.entry))
			} else {
				calls = append(calls, cl.query(trace[pn.entry].SQL, pn.entry))
			}
		}
		r.active += time.Since(w0)
		body, err := batchBody(sz.batchRows, o.seed*1_000_003+int64(appends)+1)
		if err != nil {
			return nil, err
		}
		w1 := time.Now()
		calls = append(calls, cl.appendRows(body))
		appends++
		if appends%sz.rebuildEvery == 0 {
			calls = append(calls, cl.rebuild())
		}
		drain()
		r.active += time.Since(w1)
	}
	cl.closeIdle()
	if err := r.collect(in, calls); err != nil {
		return nil, err
	}
	// Draining delivers every queued push, then ends the subscriptions.
	in.srv.BeginDrain()
	httpSub.wait(10 * time.Second)
	drain()
	pushes, err := httpSub.pushes()
	if err != nil {
		r.subFails++
	}
	r.pushLags = pushLags(calls, pushes)
	r.notes = append(r.notes, fmt.Sprintf("%d dashboard cycles, %d appends, %d HTTP pushes, %d in-process pushes",
		cycles, appends, len(pushes), len(pushAnswers)))
	for _, p := range pushes {
		ch := p.chunk
		pushAnswers = append(pushAnswers, wireAnswer("push "+ch.PushReason, standing[0], ch.Rows,
			ch.SampleGen, ch.BaseRows, ch.SampleRows, -1))
	}
	if traced {
		if err := r.timeTrain(in); err != nil {
			return nil, err
		}
	}

	answers := append(answersOf(calls), pushAnswers...)
	ta := time.Now()
	r.audit.audit(in.sys, answers)
	r.phases.add("audit", ta)
	r.audit.checkSupport(calls, supportOf(trace))
	tc := time.Now()
	cov, err := ingestCoverage(in.base, answersOf(calls), sz.coverStates, o.seed)
	r.phases.add("coverage", tc)
	if err != nil {
		return nil, err
	}
	r.cov = cov
	r.calls, r.answers, r.episodes = calls, answers, 1
	return r, nil
}

// pushLags matches each HTTP push caused by an append to that append by
// the base row count both report (one writer, so the match is exact).
func pushLags(calls []*call, pushes []push) []float64 {
	sent := map[int]time.Time{}
	for _, c := range calls {
		if c.kind == kindAppend && c.ok {
			sent[c.app.BaseRows] = c.start
		}
	}
	var lags []float64
	for _, p := range pushes {
		if p.chunk.PushReason != core.PushReasonAppend {
			continue
		}
		if t, ok := sent[p.chunk.BaseRows]; ok {
			lags = append(lags, ms(p.at.Sub(t)))
		}
	}
	return lags
}

// ingestCoverage measures coverage on the one-shot answers of every n-th
// base-table state, each against an oracle over that state's prefix.
func ingestCoverage(base *storage.Table, answers []answer, every int, seed int64) (coverage, error) {
	byRows := map[int][]answer{}
	for _, an := range answers {
		if an.rowsSeen < 0 {
			byRows[an.baseRows] = append(byRows[an.baseRows], an)
		}
	}
	var cov coverage
	for i, rows := range sortedKeys(byRows) {
		if i%every != 0 {
			continue
		}
		prefix := base.SnapshotAt(rows)
		sample, err := aqp.BuildSample(prefix, 0.02, 0, seed+3)
		if err != nil {
			return cov, err
		}
		c, err := measureCoverage(newOracle(prefix, sample), byRows[rows])
		if err != nil {
			return cov, err
		}
		cov.add(c)
	}
	return cov, nil
}

func sortedKeys(m map[int][]answer) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
