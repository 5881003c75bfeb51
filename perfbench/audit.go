package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/storage"
)

// The output audit runs after the timed window. It checks what holds by
// construction under any client interleaving:
//
//   - raw cells (value, stderr, group set) of every /query answer, stream
//     chunk and push replay bit-identically at their pinned provenance
//     (System.ExecuteView / ExecuteViewPrefix on Engine.ViewAtGen);
//   - a COUNT or AVG cell whose model was not used equals its raw values
//     exactly, and one whose model was used has stderr <= raw stderr
//     (Eq. 12);
//   - trace entries answer supported exactly as the trace marks them.
//
// Improved values are never compared against a replay or a stored answer:
// they depend on the order of Record calls under concurrent clients.

// wireCell is the part of a cell the audit reads, from either the wire
// (server.Cell) or an in-process push (core.AggregateCell).
type wireCell struct {
	agg                 string
	value, stderr       float64
	rawValue, rawStderr float64
	usedModel           bool
}

// answer is one audited answer: its rows keyed by group, its provenance and
// the sample prefix it reflects (rowsSeen < 0 means the whole view).
type answer struct {
	what       string // for mismatch reports
	sql        string
	sampleGen  uint64
	baseRows   int
	sampleRows int
	rowsSeen   int
	keys       []string
	cells      [][]wireCell
}

// auditor accumulates checks and the first mismatches.
type auditor struct {
	mu         sync.Mutex
	checked    int // answers replayed
	cells      int // cells compared
	mismatches int
	violations int
	first      []string
}

const maxReported = 5

func (a *auditor) fail(kind *int, format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	*kind++
	if len(a.first) < maxReported {
		a.first = append(a.first, fmt.Sprintf(format, args...))
	}
}

func (a *auditor) ok() bool { return a.mismatches == 0 && a.violations == 0 }

func groupKeyWire(gs []server.Group) string {
	parts := make([]string, len(gs))
	for i, g := range gs {
		v := g.Str
		if v == "" {
			v = strconv.FormatFloat(g.Num, 'g', -1, 64)
		}
		parts[i] = g.Column + "=" + v
	}
	return strings.Join(parts, ",")
}

func groupKeyCore(schema *storage.Schema, gs []query.GroupValue) string {
	parts := make([]string, len(gs))
	for i, g := range gs {
		v := g.Str
		if v == "" {
			v = strconv.FormatFloat(g.Num, 'g', -1, 64)
		}
		parts[i] = schema.Col(g.Col).Name + "=" + v
	}
	return strings.Join(parts, ",")
}

func wireAnswer(what, sql string, rows []server.Row, gen uint64, baseRows, sampleRows, rowsSeen int) answer {
	an := answer{what: what, sql: sql, sampleGen: gen, baseRows: baseRows, sampleRows: sampleRows, rowsSeen: rowsSeen}
	for _, r := range rows {
		an.keys = append(an.keys, groupKeyWire(r.Group))
		cells := make([]wireCell, len(r.Cells))
		for i, c := range r.Cells {
			cells[i] = wireCell{agg: c.Agg, value: c.Value, stderr: c.StdErr,
				rawValue: c.RawValue, rawStderr: c.RawStdErr, usedModel: c.UsedModel}
		}
		an.cells = append(an.cells, cells)
	}
	return an
}

func coreAnswer(what, sql string, schema *storage.Schema, res *core.Result) answer {
	an := answer{what: what, sql: sql, sampleGen: res.SampleGen, baseRows: res.BaseRows,
		sampleRows: res.SampleRows, rowsSeen: -1}
	for _, r := range res.Rows {
		an.keys = append(an.keys, groupKeyCore(schema, r.Group))
		cells := make([]wireCell, len(r.Cells))
		for i, c := range r.Cells {
			cells[i] = wireCell{agg: c.Agg.String(), value: c.Improved.Value, stderr: c.Improved.StdErr,
				rawValue: c.Raw.Value, rawStderr: c.Raw.StdErr, usedModel: c.UsedModel}
		}
		an.cells = append(an.cells, cells)
	}
	return an
}

// checkInvariants applies the per-cell rules that need no replay.
func (a *auditor) checkInvariants(an answer) {
	for ri, row := range an.cells {
		for _, c := range row {
			if c.agg != "COUNT" && c.agg != "AVG" {
				continue
			}
			switch {
			case !c.usedModel && (math.Float64bits(c.value) != math.Float64bits(c.rawValue) ||
				math.Float64bits(c.stderr) != math.Float64bits(c.rawStderr)):
				a.fail(&a.violations, "%s %q group %q: model unused but %s cell (%v±%v) differs from raw (%v±%v)",
					an.what, an.sql, an.keys[ri], c.agg, c.value, c.stderr, c.rawValue, c.rawStderr)
			case c.usedModel && !(c.stderr <= c.rawStderr):
				a.fail(&a.violations, "%s %q group %q: improved %s stderr %v exceeds raw stderr %v",
					an.what, an.sql, an.keys[ri], c.agg, c.stderr, c.rawStderr)
			}
		}
	}
}

// replay re-executes an answer at its provenance and compares raw cells
// and the group set bit for bit.
func (a *auditor) replay(sys *core.System, an answer) {
	eng := sys.Engine()
	view := eng.ViewAtGen(an.sampleGen, an.baseRows, an.sampleRows)
	if view == nil {
		a.fail(&a.mismatches, "%s %q: generation %d is not replayable", an.what, an.sql, an.sampleGen)
		return
	}
	var (
		res *core.Result
		err error
	)
	if an.rowsSeen >= 0 {
		res, err = sys.ExecuteViewPrefix(view, an.sql, an.rowsSeen)
	} else {
		res, err = sys.ExecuteView(view, an.sql)
	}
	if err != nil {
		a.fail(&a.mismatches, "%s %q: replay failed: %v", an.what, an.sql, err)
		return
	}
	re := coreAnswer(an.what, an.sql, eng.Base().Schema(), res)
	if strings.Join(re.keys, ";") != strings.Join(an.keys, ";") {
		a.fail(&a.mismatches, "%s %q: groups %v, replay has %v", an.what, an.sql, an.keys, re.keys)
		return
	}
	n := 0
	for ri := range an.cells {
		if len(an.cells[ri]) != len(re.cells[ri]) {
			a.fail(&a.mismatches, "%s %q group %q: %d cells, replay has %d",
				an.what, an.sql, an.keys[ri], len(an.cells[ri]), len(re.cells[ri]))
			return
		}
		for ci, c := range an.cells[ri] {
			r := re.cells[ri][ci]
			n++
			if math.Float64bits(c.rawValue) != math.Float64bits(r.rawValue) ||
				math.Float64bits(c.rawStderr) != math.Float64bits(r.rawStderr) {
				a.fail(&a.mismatches, "%s %q group %q cell %d: raw %v±%v, replay %v±%v",
					an.what, an.sql, an.keys[ri], ci, c.rawValue, c.rawStderr, r.rawValue, r.rawStderr)
			}
		}
	}
	a.mu.Lock()
	a.checked++
	a.cells += n
	a.mu.Unlock()
}

// audit checks every answer's invariants and replays them on two workers.
func (a *auditor) audit(sys *core.System, answers []answer) {
	for _, an := range answers {
		a.checkInvariants(an)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 2 {
		workers = 2
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(answers); i += workers {
				a.replay(sys, answers[i])
			}
		}(w)
	}
	wg.Wait()
}

// answersOf flattens the client log into audited answers.
func answersOf(calls []*call) []answer {
	var out []answer
	for _, c := range calls {
		if !c.ok {
			continue
		}
		switch c.kind {
		case kindQuery:
			if c.query.Supported {
				q := c.query
				out = append(out, wireAnswer("query", c.sql, q.Rows, q.SampleGen, q.BaseRows, q.SampleRows, -1))
			}
		case kindStream:
			for _, ch := range c.chunks {
				if ch.Supported {
					out = append(out, wireAnswer(fmt.Sprintf("stream chunk %d", ch.Seq), c.sql, ch.Rows,
						ch.SampleGen, ch.BaseRows, ch.SampleRows, ch.RowsSeen))
				}
			}
		}
	}
	return out
}

// checkSupport compares each trace answer's supported flag with the
// trace's own marking.
func (a *auditor) checkSupport(calls []*call, supported func(entry int) bool) {
	for _, c := range calls {
		if !c.ok || c.entry < 0 {
			continue
		}
		got := c.query.Supported
		if c.kind == kindStream {
			got = len(c.chunks) > 0 && c.chunks[0].Supported
		}
		if want := supported(c.entry); got != want {
			a.fail(&a.violations, "trace entry %d %q: supported=%v, trace marks it %v", c.entry, c.sql, got, want)
		}
	}
}

// coverage holds the calibration of audited COUNT/AVG cells against exact
// answers: how many cells' exact answer lies inside the improved and the
// raw 95% interval.
type coverage struct {
	cells, improved, raw, missing int
}

func (c *coverage) add(o coverage) {
	c.cells += o.cells
	c.improved += o.improved
	c.raw += o.raw
	c.missing += o.missing
}

// measureCoverage computes exact answers with ExecuteWithExact on oracle,
// a separate System over the same base rows, so the audit never records
// into the synopsis being measured.
func measureCoverage(oracle *core.System, answers []answer) (coverage, error) {
	alpha, err := mathx.ConfidenceMultiplier(0.95)
	if err != nil {
		return coverage{}, err
	}
	schema := oracle.Engine().Base().Schema()
	var cov coverage
	for _, an := range answers {
		res, err := oracle.ExecuteWithExact(an.sql)
		if err != nil {
			return cov, fmt.Errorf("exact %q: %w", an.sql, err)
		}
		exact := map[string][]core.AggregateCell{}
		for _, r := range res.Rows {
			exact[groupKeyCore(schema, r.Group)] = r.Cells
		}
		for ri, row := range an.cells {
			ex, found := exact[an.keys[ri]]
			for ci, c := range row {
				if c.agg != "COUNT" && c.agg != "AVG" {
					continue
				}
				if !found || ci >= len(ex) {
					cov.missing++
					continue
				}
				e := ex[ci].Exact
				cov.cells++
				if math.Abs(c.value-e) <= alpha*c.stderr {
					cov.improved++
				}
				if math.Abs(c.rawValue-e) <= alpha*c.rawStderr {
					cov.raw++
				}
			}
		}
	}
	return cov, nil
}

// newOracle builds the exact-answer System over base (or a prefix of it).
func newOracle(base *storage.Table, sample *aqp.Sample) *core.System {
	return core.NewSystem(aqp.NewEngine(base, sample, aqp.CachedCost), core.Config{})
}

// ciRatios returns improved over raw 95% half-width for every COUNT and
// AVG cell of the answers.
func ciRatios(answers []answer) []float64 {
	var out []float64
	for _, an := range answers {
		for _, row := range an.cells {
			for _, c := range row {
				if (c.agg == "COUNT" || c.agg == "AVG") && c.rawStderr > 0 {
					out = append(out, c.stderr/c.rawStderr)
				}
			}
		}
	}
	return out
}

// usedModelFrac is the share of COUNT/AVG cells whose model answer passed
// validation.
func usedModelFrac(answers []answer) float64 {
	used, n := 0, 0
	for _, an := range answers {
		for _, row := range an.cells {
			for _, c := range row {
				if c.agg == "COUNT" || c.agg == "AVG" {
					n++
					if c.usedModel {
						used++
					}
				}
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(used) / float64(n)
}
