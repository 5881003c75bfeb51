// Command perfbench is the repository's end-to-end serving benchmark. It
// serves server.New(...).Handler() over loopback from this process, wired
// as cmd/verdict-server wires it, and drives one of three closed-loop
// workloads:
//
//	trace-grow        the Customer1 trace from an empty synopsis (2 clients)
//	trace-full        the same trace at a full synopsis, C_g = 200 (2 clients)
//	ingest-dashboard  a fixed dashboard interleaved with appends, rebuilds
//	                  and standing subscriptions (1 client + 1 subscription)
//
// Usage (build and run from the repository root):
//
//	bash perfbench/run.sh --workload trace-grow --seed 1 --seconds 10 --trace 0
//
// After the timed window an output audit replays every answer received and
// checks the model invariants; a failed audit fails the run. With --trace 0
// the result carries the end-to-end metrics; with --trace 1 the run is made
// twice, untraced and traced, and the result carries the per-layer split of
// the traced run. The last line of standard output is the JSON result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/obs"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(runOpts, bool) (*run, error){
	"trace-grow":       traceGrow,
	"trace-full":       traceFull,
	"ingest-dashboard": ingestDashboard,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"trace-grow", "trace-full", "ingest-dashboard"}

func main() {
	var (
		wl      = flag.String("workload", "trace-grow", "trace-grow | trace-full | ingest-dashboard | all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
	)
	flag.Parse()
	names := []string{*wl}
	if *wl == "all" {
		names = workloadOrder
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		o := runOpts{workload: name, seed: *seed, window: time.Duration(*seconds) * time.Second, sz: fullSizes}
		r, err := bench(os.Stdout, o, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		res.merge(r, name, len(names) > 1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// merge folds one workload's result in; with prefix set (--workload all)
// its metrics are named "<workload>/<metric>".
func (res *result) merge(r *result, workload string, prefix bool) {
	res.Correct = res.Correct && r.Correct
	res.Attempted += r.Attempted
	res.Failed += r.Failed
	for k, m := range r.Metrics {
		if prefix {
			k = workload + "/" + k
		}
		res.Metrics[k] = m
	}
}

// bench runs one workload, prints the report to w and returns the result.
// With traced set the untraced run is followed by a traced one, and the
// result carries the traced run's per-layer metrics.
func bench(w io.Writer, o runOpts, traced bool) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	printEnv(w, o)
	plain, err := fn(o, false)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: plain.audit.ok(), Metrics: endToEnd(plain)}
	res.Attempted, res.Failed = plain.counts()
	title := "end-to-end"
	if traced {
		title += " (untraced run)"
	}
	printReport(w, title, plain, res.Metrics, extras(plain))
	printAudit(w, "untraced", plain)
	if !traced {
		return res, nil
	}
	plainP50 := plain.queryP50()
	// Drop the untraced run's request log so the traced run does not pay
	// garbage-collection work for it.
	plain = nil
	runtime.GC()
	tr, err := fn(o, true)
	if err != nil {
		return nil, err
	}
	att, failed := tr.counts()
	res.Attempted += att
	res.Failed += failed
	res.Correct = res.Correct && tr.audit.ok()
	res.Metrics = perLayer(plainP50, tr)
	printReport(w, "per-layer (traced run)", tr, res.Metrics, layerExtras(tr))
	printAudit(w, "traced", tr)
	return res, nil
}

func printEnv(w io.Writer, o runOpts) {
	commit, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	commit += dirty
	fmt.Fprintf(w, "env: commit=%s go=%s nproc=%d GOMAXPROCS=%d seed=%d workload=%s window=%s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.workload, o.window)
}

// counts returns requests attempted and failed (non-200 or undecodable).
func (r *run) counts() (attempted, failed int) {
	attempted, failed = len(r.calls)+r.subReqs, r.subFails
	for _, c := range r.calls {
		if !c.ok {
			failed++
		}
	}
	return attempted, failed
}

// latencies returns the latencies in ms of the successful calls of a kind.
func (r *run) latencies(kind string) []float64 {
	var out []float64
	for _, c := range r.calls {
		if c.kind == kind && c.ok {
			out = append(out, ms(c.latency()))
		}
	}
	return out
}

func (r *run) queryP50() float64 { return quantile(r.latencies(kindQuery), 0.5) }

func endToEnd(r *run) map[string]metric {
	q := r.latencies(kindQuery)
	setups := make([]float64, len(r.setups))
	for i, d := range r.setups {
		setups[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":           {quantile(setups, 0.5), "s"},
		"qps":               {float64(len(q)) / r.active.Seconds(), "1/s"},
		"query_p50_ms":      {quantile(q, 0.5), "ms"},
		"query_p95_ms":      {quantile(q, 0.95), "ms"},
		"ci_ratio":          {mean(ciRatios(oneShot(r.answers))), "ratio"},
		"improved_coverage": {share(r.cov.improved, r.cov.cells), "share"},
		"heap_mb":           {r.heapMB, "MB"},
	}
}

// extras are the end-to-end figures that exist on some workloads only
// (streams, appends and pushes run on ingest-dashboard), plus context.
func extras(r *run) map[string]metric {
	m := map[string]metric{}
	if s := r.streamCalls(); len(s) > 0 {
		var first, full []float64
		for _, c := range s {
			first = append(first, ms(c.first.Sub(c.start)))
			full = append(full, ms(c.latency()))
		}
		m["stream_first_p50_ms"] = metric{quantile(first, 0.5), "ms"}
		m["stream_full_p50_ms"] = metric{quantile(full, 0.5), "ms"}
	}
	if a := r.latencies(kindAppend); len(a) > 0 {
		m["append_p50_ms"] = metric{quantile(a, 0.5), "ms"}
		m["append_p90_ms"] = metric{quantile(a, 0.9), "ms"}
	}
	if len(r.pushLags) > 0 {
		m["push_lag_p50_ms"] = metric{quantile(r.pushLags, 0.5), "ms"}
		m["push_lag_p90_ms"] = metric{quantile(r.pushLags, 0.9), "ms"}
	}
	att, failed := r.counts()
	m["fail_frac"] = metric{share(failed, att), "share"}
	m["query_p99_ms"] = metric{quantile(r.latencies(kindQuery), 0.99), "ms"}
	m["ci_ratio_median"] = metric{quantile(ciRatios(oneShot(r.answers)), 0.5), "ratio"}
	m["raw_coverage"] = metric{share(r.cov.raw, r.cov.cells), "share"}
	m["coverage_cells"] = metric{float64(r.cov.cells), "count"}
	m["queries"] = metric{float64(len(r.latencies(kindQuery))), "count"}
	m["episodes"] = metric{float64(r.episodes), "count"}
	m["window_s"] = metric{r.active.Seconds(), "s"}
	st := r.stats.System
	m["work.snippets"] = metric{float64(st.Snippets), "count"}
	m["work.synopsis_entries"] = metric{float64(r.stats.Synopsis.Snippets), "count"}
	m["work.max_function_entries"] = metric{float64(r.maxFuncEntries), "count"}
	m["work.improved"] = metric{float64(st.Improved), "count"}
	m["work.notify_batches"] = metric{float64(st.NotifyBatches), "count"}
	m["work.notify_scans"] = metric{float64(st.NotifyScans), "count"}
	m["work.notify_pushes"] = metric{float64(st.NotifyPushes), "count"}
	m["work.notify_coalesced"] = metric{float64(st.NotifyCoalesced), "count"}
	m["work.stream_increments"] = metric{float64(st.Increments), "count"}
	m["work.appended_rows"] = metric{float64(st.AppendRows), "count"}
	m["work.sample_rows"] = metric{float64(r.stats.Table.SampleRows), "count"}
	m["work.shed"] = metric{r.metrics["verdict_http_shed_total"], "count"}
	return m
}

func (r *run) streamCalls() []*call {
	var out []*call
	for _, c := range r.calls {
		if c.kind == kindStream && c.ok {
			out = append(out, c)
		}
	}
	return out
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

func share(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func ratio(n, d float64) float64 {
	if d == 0 {
		return 0
	}
	return n / d
}

// perLayer derives the per-layer split from the traced run's spans,
// counters and timed calls.
func perLayer(plainP50 float64, tr *run) map[string]metric {
	parse := stageDurations(tr.spans, obs.StageParse, obs.ModeOneShot)
	prune := stageDurations(tr.spans, obs.StagePrune, obs.ModeOneShot)
	scan := stageDurations(tr.spans, obs.StageScan, obs.ModeOneShot)
	infer := stageDurations(tr.spans, obs.StageInfer, obs.ModeOneShot)
	st := tr.stats.System
	increments := 0.0
	if s := tr.streamCalls(); len(s) > 0 {
		n := 0
		for _, c := range s {
			n += len(c.chunks)
		}
		increments = float64(n) / float64(len(s))
	}
	return map[string]metric{
		"server.overhead_us_mean":   {tr.serverOverheadMean(), "us"},
		"server.shed":               {tr.metrics["verdict_http_shed_total"], "count"},
		"sqlparse.parse_us_p50":     {quantile(parse, 0.5), "us"},
		"query.prune_us_p50":        {quantile(prune, 0.5), "us"},
		"query.snippets_per_query":  {ratio(float64(st.Snippets), float64(st.Supported)), "count"},
		"aqp.scan_us_p50":           {quantile(scan, 0.5), "us"},
		"aqp.scan_us_p99":           {quantile(scan, 0.99), "us"},
		"aqp.increments_per_stream": {increments, "count"},
		"storage.sample_rows":       {float64(tr.stats.Table.SampleRows), "count"},
		"core.infer_us_p50":         {quantile(infer, 0.5), "us"},
		"core.infer_us_p99":         {quantile(infer, 0.99), "us"},
		"core.synopsis_entries":     {float64(tr.stats.Synopsis.Snippets), "count"},
		"core.used_model_frac":      {usedModelFrac(oneShot(tr.answers)), "share"},
		"core.train_s":              {tr.train.Seconds(), "s"},
		"notify.scans_per_batch":    {ratio(float64(st.NotifyScans), float64(st.NotifyBatches)), "count"},
		"notify.coalesced":          {float64(st.NotifyCoalesced), "count"},
		"trace.overhead_frac":       {ratio(tr.queryP50(), plainP50), "ratio"},
	}
}

// layerExtras are the per-layer figures that exist on some workloads only:
// the write path, which only ingest-dashboard exercises, and the median
// serving overhead where requests could be attributed without ambiguity.
func layerExtras(tr *run) map[string]metric {
	m := map[string]metric{}
	if len(tr.overheads) > 0 {
		m["server.overhead_us_p50"] = metric{quantile(tr.overheads, 0.5), "us"}
		m["server.overhead_requests"] = metric{float64(len(tr.overheads)), "count"}
	}
	var fanout []float64
	for _, sp := range tr.notify {
		fanout = append(fanout, ms(sp.dur()))
	}
	if len(fanout) > 0 {
		m["notify.fanout_ms_p50"] = metric{quantile(fanout, 0.5), "ms"}
	}
	if a := tr.minusFanout(kindAppend); len(a) > 0 {
		m["core.append_ms_p50"] = metric{quantile(a, 0.5), "ms"}
	}
	if b := tr.minusFanout(kindRebuild); len(b) > 0 {
		m["aqp.rebuild_ms_p50"] = metric{quantile(b, 0.5), "ms"}
	}
	return m
}

// serverOverheadMean is the mean over /query requests of latency minus
// their stage spans. It needs no attribution: every stage span inside a
// /query request belongs to exactly one of them, so the sums suffice.
func (r *run) serverOverheadMean() float64 {
	var total time.Duration
	n := 0
	for _, c := range r.calls {
		if c.kind == kindQuery && c.ok {
			total += c.latency()
			n++
		}
	}
	for _, sp := range r.spans {
		total -= sp.dur()
	}
	return ratio(us(total), float64(n))
}

// minusFanout returns the latencies (ms) of one kind of write request minus
// the notify fan-out batches that ran inside them.
func (r *run) minusFanout(kind string) []float64 {
	var out []float64
	for _, c := range r.calls {
		if c.kind != kind || !c.ok {
			continue
		}
		d := c.latency()
		for _, sp := range r.notify {
			if !sp.start.Before(c.start) && !sp.end.After(c.end) {
				d -= sp.dur()
			}
		}
		out = append(out, ms(d))
	}
	return out
}

func oneShot(answers []answer) []answer {
	var out []answer
	for _, an := range answers {
		if an.what == "query" {
			out = append(out, an)
		}
	}
	return out
}

func printReport(w io.Writer, title string, r *run, ms, extra map[string]metric) {
	fmt.Fprintf(w, "== %s\n", title)
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	fmt.Fprintf(w, "  window %.1fs; outside it: %s\n", r.active.Seconds(), &r.phases)
	for _, set := range []map[string]metric{ms, extra} {
		names := make([]string, 0, len(set))
		for k := range set {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, set[k].Value, set[k].Unit)
		}
	}
}

func printAudit(w io.Writer, label string, r *run) {
	a := &r.audit
	status := "PASS"
	if !a.ok() {
		status = "FAIL"
	}
	fmt.Fprintf(w, "audit (%s run): %s — %d answers replayed, %d raw cells compared, %d replay mismatches, %d invariant violations\n",
		label, status, a.checked, a.cells, a.mismatches, a.violations)
	for _, m := range a.first {
		fmt.Fprintln(w, "  mismatch:", m)
	}
}
