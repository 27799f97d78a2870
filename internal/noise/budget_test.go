package noise_test

// Budget degradation tests: resource caps must degrade the report
// gracefully — truncated prefix, sampled detail, exact totals — and do
// so bit-identically across the sequential, parallel, stream, and raw
// analysis paths.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// runAllPaths analyses the same trace through every entry point and
// asserts the four reports are bit-identical, returning the sequential
// one.
func runAllPaths(t *testing.T, tr *trace.Trace, opts noise.Options, shards int) *noise.Report {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	ctx := context.Background()

	want := noise.Analyze(tr, opts)

	par, err := noise.AnalyzeParallel(ctx, tr, opts, shards)
	if err != nil {
		t.Fatalf("AnalyzeParallel: %v", err)
	}
	compareReports(t, want, par)

	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	str, err := noise.AnalyzeStream(ctx, d, opts, shards)
	if err != nil {
		t.Fatalf("AnalyzeStream: %v", err)
	}
	compareReports(t, want, str)

	rr, err := noise.AnalyzeRaw(ctx, bytes.NewReader(raw), int64(len(raw)), opts, shards)
	if err != nil {
		t.Fatalf("AnalyzeRaw: %v", err)
	}
	compareReports(t, want, rr)

	for name, got := range map[string]*noise.Report{"parallel": par, "stream": str, "raw": rr} {
		if got.Incomplete != want.Incomplete ||
			got.InterruptionsTotal != want.InterruptionsTotal ||
			got.InterruptionsSampled != want.InterruptionsSampled {
			t.Errorf("%s degradation flags diverge: %v/%d/%v vs %v/%d/%v", name,
				got.Incomplete, got.InterruptionsTotal, got.InterruptionsSampled,
				want.Incomplete, want.InterruptionsTotal, want.InterruptionsSampled)
		}
	}
	return want
}

// TestEventBudgetTruncatesPrefix caps ingestion by event count: the
// report must cover exactly the allowed prefix and be marked
// Incomplete, identically on every path.
func TestEventBudgetTruncatesPrefix(t *testing.T) {
	tr := simTrace(6)
	if len(tr.Events) < 1000 {
		t.Fatalf("trace too small for the test: %d events", len(tr.Events))
	}
	cap64 := uint64(len(tr.Events) / 2)

	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{MaxEvents: cap64}
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			r := runAllPaths(t, tr, opts, shards)
			if !r.Incomplete {
				t.Fatal("truncated report not marked Incomplete")
			}
			// The budgeted run must equal an unbudgeted run over the prefix.
			prefix := &trace.Trace{CPUs: tr.CPUs, Events: tr.Events[:cap64], Procs: tr.Procs}
			ref := noise.Analyze(prefix, noise.DefaultOptions())
			if r.TotalNoiseNS != ref.TotalNoiseNS || r.Breakdown != ref.Breakdown {
				t.Fatalf("budgeted run diverges from prefix run: noise %d vs %d", r.TotalNoiseNS, ref.TotalNoiseNS)
			}
		})
	}
}

// TestByteBudgetMatchesEventBudget caps by bytes: MaxBytes rounds down
// to whole event records, so it must reproduce the equivalent MaxEvents
// run exactly.
func TestByteBudgetMatchesEventBudget(t *testing.T) {
	tr := simTrace(2)
	n := uint64(len(tr.Events)) * 2 / 3

	byEvents := noise.DefaultOptions()
	byEvents.Budget = noise.Budget{MaxEvents: n}
	byBytes := noise.DefaultOptions()
	// Add a partial record's worth of slack: it must not buy an event.
	byBytes.Budget = noise.Budget{MaxBytes: n*trace.EventSize + trace.EventSize - 1}

	a := noise.Analyze(tr, byEvents)
	b := noise.Analyze(tr, byBytes)
	compareReports(t, a, b)
	if a.EventsConsumed != n || b.EventsConsumed != n {
		t.Fatalf("consumed %d/%d, want %d", a.EventsConsumed, b.EventsConsumed, n)
	}
}

// TestInterruptionBudgetSamples caps the retained detail records: the
// list shrinks to a deterministic reservoir sample while every
// aggregate total stays exact.
func TestInterruptionBudgetSamples(t *testing.T) {
	tr := simTrace(9)
	full := noise.Analyze(tr, noise.DefaultOptions())
	if len(full.Interruptions) < 50 {
		t.Fatalf("trace too quiet for the test: %d interruptions", len(full.Interruptions))
	}
	const keep = 25

	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{MaxInterruptions: keep}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			r := runAllPaths(t, tr, opts, shards)
			if !r.InterruptionsSampled {
				t.Fatal("capped report not marked sampled")
			}
			if len(r.Interruptions) != keep {
				t.Fatalf("kept %d records, want %d", len(r.Interruptions), keep)
			}
			if r.InterruptionsTotal != len(full.Interruptions) {
				t.Fatalf("total %d, want exact %d", r.InterruptionsTotal, len(full.Interruptions))
			}
			// Totals stay exact: sampling touches only the detail list.
			if r.TotalNoiseNS != full.TotalNoiseNS || r.Breakdown != full.Breakdown {
				t.Fatal("sampling changed aggregate totals")
			}
			if r.Incomplete {
				t.Fatal("sampling alone must not mark the report Incomplete")
			}
			// The sample is a subsequence of the full list (order preserved).
			j := 0
			for i := range full.Interruptions {
				if j < keep && reflect.DeepEqual(r.Interruptions[j], full.Interruptions[i]) {
					j++
				}
			}
			if j != keep {
				t.Fatalf("sample is not an ordered subsequence of the full list (%d/%d matched)", j, keep)
			}
		})
	}
}

// TestReservoirDeterministic locks the fixed-seed reservoir: the same
// input and cap always keep the same records.
func TestReservoirDeterministic(t *testing.T) {
	tr := simTrace(9)
	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{MaxInterruptions: 10}
	a := noise.Analyze(tr, opts)
	b := noise.Analyze(tr, opts)
	if !reflect.DeepEqual(a.Interruptions, b.Interruptions) {
		t.Fatal("same input and cap kept different records")
	}
}

// TestZeroBudgetIsUnlimited locks the zero-value contract.
func TestZeroBudgetIsUnlimited(t *testing.T) {
	tr := simTrace(1)
	plain := noise.Analyze(tr, noise.DefaultOptions())
	opts := noise.DefaultOptions()
	opts.Budget = noise.Budget{}
	budgeted := noise.Analyze(tr, opts)
	compareReports(t, plain, budgeted)
	if budgeted.Incomplete || budgeted.InterruptionsSampled {
		t.Fatal("zero budget degraded the report")
	}
}

// TestRoutingThresholdFallback lowers the sharded pipeline's routing
// threshold below the trace's event count. The in-memory and raw paths
// can re-read their input, so they fall back to the sequential analyzer;
// the stream path cannot, so it stops at the threshold exactly like an
// event budget and reports that prefix, marked Incomplete.
func TestRoutingThresholdFallback(t *testing.T) {
	tr := simTrace(5)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	threshold := uint64(len(tr.Events) / 3)
	defer noise.SetMaxRouted(threshold)()

	ctx := context.Background()
	opts := noise.DefaultOptions()
	want := noise.Analyze(tr, opts)
	par, err := noise.AnalyzeParallel(ctx, tr, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, par) {
		t.Error("AnalyzeParallel past the threshold differs from Analyze")
	}
	rr, err := noise.AnalyzeRaw(ctx, bytes.NewReader(raw), int64(len(raw)), opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, rr) {
		t.Error("AnalyzeRaw past the threshold differs from Analyze")
	}

	capped := opts
	capped.Budget.MaxEvents = threshold
	wantPrefix := noise.Analyze(tr, capped)
	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	str, err := noise.AnalyzeStream(ctx, d, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !str.Incomplete || str.EventsConsumed != threshold {
		t.Fatalf("stream: incomplete=%v consumed=%d, want true/%d", str.Incomplete, str.EventsConsumed, threshold)
	}
	if !reflect.DeepEqual(wantPrefix, str) {
		t.Error("AnalyzeStream past the threshold differs from Analyze under MaxEvents = threshold")
		compareReports(t, wantPrefix, str)
	}
}
