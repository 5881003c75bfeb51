package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/aqp"
	"repro/internal/core"
	"repro/internal/workload"
)

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(ms map[string]metric) []string {
	out := make([]string, 0, len(ms))
	for k := range ms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a tiny
// size through the same code path as a measured run, audit included.
func TestWorkloadsTiny(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, wl := range workloadOrder {
		wl := wl
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				o := runOpts{workload: wl, seed: 3, window: 600 * time.Millisecond, sz: tinySizes}
				var out bytes.Buffer
				res, err := bench(&out, o, traced)
				if err != nil {
					t.Fatalf("traced=%v: %v\n%s", traced, err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s",
						traced, res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if got := metricNames(res.Metrics); !equal(got, want) {
					t.Fatalf("traced=%v: metrics %v, BENCHMARK.json declares %v", traced, got, want)
				}
				for name, m := range res.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: metric %s = %v", traced, name, m.Value)
					}
				}
			}
		})
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAuditCatchesPerturbedRawValue shows the audit cannot pass vacuously:
// answers served over HTTP pass it, and the same answers with one raw
// value moved by one ulp fail it with exactly one replay mismatch.
func TestAuditCatchesPerturbedRawValue(t *testing.T) {
	base, err := workload.GenerateCustomer1(20_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	sample, err := aqp.BuildSample(base, 0.1, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	in, err := startInstance(base, sample, core.Config{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	trace := genTrace(40, 7)
	answers := answersOf(driveTrace(in.url, trace, 2, len(trace), time.Time{}))
	if len(answers) == 0 {
		t.Fatal("no answers to audit")
	}

	var clean auditor
	clean.audit(in.sys, answers)
	if !clean.ok() || clean.checked != len(answers) {
		t.Fatalf("clean answers: %d/%d replayed, %d mismatches, %d violations: %v",
			clean.checked, len(answers), clean.mismatches, clean.violations, clean.first)
	}

	c := &answers[len(answers)/2].cells[0][0]
	c.rawValue = math.Nextafter(c.rawValue, math.Inf(1))
	var bad auditor
	bad.audit(in.sys, answers)
	if bad.mismatches != 1 {
		t.Fatalf("perturbed raw value: %d replay mismatches, want 1 (%v)", bad.mismatches, bad.first)
	}
}
