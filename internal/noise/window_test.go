package noise_test

// Window / WindowSummary tests: the rolling-aggregate layer the
// daemon's tenant sessions sit on. The load-bearing property is
// bit-identity of a one-report window against the batch analyzer —
// the per-stream half of the daemon determinism contract.

import (
	"math"
	"reflect"
	"testing"

	"osnoise/internal/noise"
)

// summariesEqual compares two WindowSummary values bit-exactly,
// including the unexported floating-point moment state inside each
// stats.Summary (reflect.DeepEqual sees unexported fields).
func summariesEqual(t *testing.T, label string, want, got noise.WindowSummary) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: window summary diverges\nwant %+v\ngot  %+v", label, want, got)
	}
	if math.Float64bits(want.Seconds) != math.Float64bits(got.Seconds) {
		t.Errorf("%s: Seconds bits diverge: %x vs %x", label,
			math.Float64bits(want.Seconds), math.Float64bits(got.Seconds))
	}
}

// summaryOf folds one Report into a fresh summary, the unit Window.Add
// takes.
func summaryOf(r *noise.Report) *noise.WindowSummary {
	var s noise.WindowSummary
	s.AddReport(r)
	return &s
}

// TestWindowSingleReportBitIdentical: folding one batch Report into a
// fresh window reproduces its aggregates exactly.
func TestWindowSingleReportBitIdentical(t *testing.T) {
	tr := simTrace(3)
	rep := noise.Analyze(tr, noise.DefaultOptions())

	var want noise.WindowSummary
	want.AddReport(rep)

	w := noise.NewWindow(4)
	w.Add(summaryOf(rep))
	got := w.Merged()
	summariesEqual(t, "one report", want, got)

	if got.Reports != 1 || got.Incomplete != 0 {
		t.Fatalf("counters: %+v", got)
	}
	if got.TotalNoiseNS != rep.TotalNoiseNS || got.CPUs != rep.CPUs {
		t.Fatalf("totals diverge from the batch report: %+v vs noise=%d cpus=%d",
			got, rep.TotalNoiseNS, rep.CPUs)
	}
	if got.Interruptions != len(rep.Interruptions) {
		t.Fatalf("interruptions %d, want %d", got.Interruptions, len(rep.Interruptions))
	}
	for k := noise.Key(0); k < noise.NumKeys; k++ {
		if got.PerKey[k] != rep.PerKey[k].Summary {
			t.Fatalf("%v summary diverges: %+v vs %+v", k, got.PerKey[k], rep.PerKey[k].Summary)
		}
	}
}

// TestWindowMergeOrderMatchesSequentialFold: reports spread across
// buckets merge oldest-first, matching one summary fed the same
// reports in arrival order.
func TestWindowMergeOrderMatchesSequentialFold(t *testing.T) {
	reps := []*noise.Report{
		noise.Analyze(simTrace(1), noise.DefaultOptions()),
		noise.Analyze(simTrace(2), noise.DefaultOptions()),
		noise.Analyze(simTrace(5), noise.DefaultOptions()),
	}
	var want noise.WindowSummary
	for _, r := range reps {
		want.AddReport(r)
	}

	w := noise.NewWindow(3)
	for i, r := range reps {
		w.Add(summaryOf(r))
		if i < len(reps)-1 {
			w.Rotate()
		}
	}
	summariesEqual(t, "three buckets", want, w.Merged())
}

// TestWindowEviction: rotating past the width drops the oldest
// report's contribution from Merged.
func TestWindowEviction(t *testing.T) {
	old := noise.Analyze(simTrace(1), noise.DefaultOptions())
	keep := noise.Analyze(simTrace(2), noise.DefaultOptions())

	w := noise.NewWindow(2)
	w.Add(summaryOf(old))
	w.Rotate()
	w.Add(summaryOf(keep))
	w.Rotate() // old falls out
	got := w.Merged()

	var want noise.WindowSummary
	want.AddReport(keep)
	summariesEqual(t, "evicted window", want, got)
	if got.Reports != 1 {
		t.Fatalf("reports = %d, want 1 after eviction", got.Reports)
	}
}

// TestWindowSampledAndIncompleteCounters: degraded reports are counted
// and their exact interruption totals used.
func TestWindowSampledAndIncompleteCounters(t *testing.T) {
	tr := simTrace(6)
	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{MaxInterruptions: 3, MaxEvents: uint64(len(tr.Events) / 2)}
	rep := noise.Analyze(tr, opts)
	if !rep.Incomplete || !rep.InterruptionsSampled {
		t.Skipf("fixture did not degrade: incomplete=%v sampled=%v", rep.Incomplete, rep.InterruptionsSampled)
	}

	var ws noise.WindowSummary
	ws.AddReport(rep)
	if ws.Incomplete != 1 || ws.Sampled != 1 {
		t.Fatalf("degradation counters: %+v", ws)
	}
	if ws.Interruptions != rep.InterruptionsTotal {
		t.Fatalf("interruptions %d, want exact total %d", ws.Interruptions, rep.InterruptionsTotal)
	}
}

// TestWindowFractions: NoiseFraction/CategoryFraction mirror the
// single-report accessors.
func TestWindowFractions(t *testing.T) {
	rep := noise.Analyze(simTrace(4), noise.DefaultOptions())
	var ws noise.WindowSummary
	ws.AddReport(rep)
	if math.Float64bits(ws.NoiseFraction()) != math.Float64bits(rep.NoiseFraction()) {
		t.Fatalf("NoiseFraction %v, want %v", ws.NoiseFraction(), rep.NoiseFraction())
	}
	for c := noise.Category(0); c < noise.NumCategories; c++ {
		if math.Float64bits(ws.CategoryFraction(c)) != math.Float64bits(rep.CategoryFraction(c)) {
			t.Fatalf("%v fraction %v, want %v", c, ws.CategoryFraction(c), rep.CategoryFraction(c))
		}
	}
}
