// Incremental summary windows.
//
// The batch analyzers produce one Report per trace; a long-running
// collector sees an unbounded sequence of them per tenant and needs a
// bounded, mergeable aggregate instead. WindowSummary is that
// aggregate: the additive slice of a Report (per-key stats.Summary,
// per-category noise totals, event/drop/interruption counters) folded
// with the same stats.Merge machinery the parallel pipeline uses, in
// arrival order, so folding exactly one complete Report into a zero
// WindowSummary reproduces the batch analyzer's numbers bit for bit —
// the daemon's per-stream determinism contract (docs/ARCHITECTURE.md
// §6) rests on that.
//
// SummarizeStream produces the same WindowSummary straight from a
// trace stream, without building the Report's detail.
//
// Window arranges WindowSummary values into a rolling ring (the
// stats.Rolling shape, one bucket per flush interval): Add folds a
// stream's summary into the current bucket, Rotate advances the ring,
// and Merged folds the live buckets oldest-first into the summary the
// sinks export.

package noise

import "osnoise/internal/stats"

// WindowSummary is a compact, mergeable aggregate of one or more
// Reports: everything a rolling noise summary needs, nothing sized by
// the trace (no spans, no durations, no interruption detail).
type WindowSummary struct {
	// Reports counts the Reports folded in.
	Reports int
	// Incomplete counts folded Reports that were marked Incomplete
	// (budget-truncated or cancelled mid-run).
	Incomplete int
	// Sampled counts folded Reports whose interruption detail was
	// reservoir-sampled by a budget cap.
	Sampled int
	// CPUs is the largest CPU count among the folded Reports.
	CPUs int
	// Seconds sums the analysed duration of the folded Reports.
	Seconds float64
	// EventsConsumed sums the event records the folded analyses
	// ingested.
	EventsConsumed uint64
	// Dropped sums the dropped-record counters of the folded Reports.
	Dropped int
	// Interruptions sums exact interruption counts (a sampled Report
	// contributes its InterruptionsTotal, not its sample length).
	Interruptions int
	// TotalNoiseNS sums the noise nanoseconds of the folded Reports.
	TotalNoiseNS int64
	// Breakdown sums noise nanoseconds per category.
	Breakdown [NumCategories]int64
	// PerKey merges the per-activity summaries of the folded Reports
	// in arrival order (stats.Summary.Merge keeps count/sum/min/max
	// and the variance moments exact).
	PerKey [NumKeys]stats.Summary
}

// AddReport folds one finished Report into the summary. Folding a
// single complete Report into a zero WindowSummary copies its
// aggregates exactly, including the order-sensitive floating-point
// moment state.
func (w *WindowSummary) AddReport(r *Report) {
	n := len(r.Interruptions)
	if r.InterruptionsSampled {
		n = r.InterruptionsTotal
	}
	w.add(r, n)
}

// add folds r with its exact interruption count n (a summary-only
// report carries the count without the list).
func (w *WindowSummary) add(r *Report, n int) {
	w.Reports++
	if r.Incomplete {
		w.Incomplete++
	}
	if r.InterruptionsSampled {
		w.Sampled++
	}
	w.Interruptions += n
	if r.CPUs > w.CPUs {
		w.CPUs = r.CPUs
	}
	w.Seconds += r.Seconds
	w.EventsConsumed += r.EventsConsumed
	w.Dropped += r.Dropped
	w.TotalNoiseNS += r.TotalNoiseNS
	for c := range w.Breakdown {
		w.Breakdown[c] += r.Breakdown[c]
	}
	for k := Key(0); k < NumKeys; k++ {
		if ks := r.PerKey[k]; ks != nil {
			w.PerKey[k].Merge(&ks.Summary)
		}
	}
}

// Merge folds another WindowSummary into w (other is the newer of the
// two; callers merge oldest first so the moment accumulation order is
// deterministic).
func (w *WindowSummary) Merge(other *WindowSummary) {
	w.Reports += other.Reports
	w.Incomplete += other.Incomplete
	w.Sampled += other.Sampled
	if other.CPUs > w.CPUs {
		w.CPUs = other.CPUs
	}
	w.Seconds += other.Seconds
	w.EventsConsumed += other.EventsConsumed
	w.Dropped += other.Dropped
	w.Interruptions += other.Interruptions
	w.TotalNoiseNS += other.TotalNoiseNS
	for c := range w.Breakdown {
		w.Breakdown[c] += other.Breakdown[c]
	}
	for k := range w.PerKey {
		w.PerKey[k].Merge(&other.PerKey[k])
	}
}

// NoiseFraction returns total noise as a fraction of the summed CPU
// time the folded Reports cover, mirroring Report.NoiseFraction.
func (w *WindowSummary) NoiseFraction() float64 {
	if w.Seconds <= 0 || w.CPUs <= 0 {
		return 0
	}
	return float64(w.TotalNoiseNS) / (w.Seconds * 1e9 * float64(w.CPUs))
}

// CategoryFraction returns a category's share of the window's total
// noise.
func (w *WindowSummary) CategoryFraction(c Category) float64 {
	if w.TotalNoiseNS == 0 {
		return 0
	}
	return float64(w.Breakdown[c]) / float64(w.TotalNoiseNS)
}

// Window is a rolling ring of WindowSummary buckets — the per-tenant
// aggregate a collector daemon keeps between flushes. Summaries fold
// into the current bucket; Rotate advances the ring once per flush
// interval, discarding the oldest bucket when the ring is full, so
// Merged always covers the last Buckets() intervals. A Window is not
// safe for concurrent use; callers hold their own locks.
type Window struct {
	buckets []WindowSummary
	head    int
	filled  int
}

// NewWindow returns a rolling window of n buckets (n < 1 is treated
// as 1: a plain resettable summary).
func NewWindow(n int) *Window {
	if n < 1 {
		n = 1
	}
	return &Window{buckets: make([]WindowSummary, n), filled: 1}
}

// Add folds one stream's summary into the current bucket. Merging a
// summary into a bucket is bit-identical to folding its Report there
// with AddReport.
func (w *Window) Add(s *WindowSummary) { w.buckets[w.head].Merge(s) }

// Rotate freezes the current bucket and makes a zeroed bucket
// current, discarding the oldest bucket once the ring is full.
func (w *Window) Rotate() {
	w.head = (w.head + 1) % len(w.buckets)
	w.buckets[w.head] = WindowSummary{}
	if w.filled < len(w.buckets) {
		w.filled++
	}
}

// Buckets returns the window width in buckets.
func (w *Window) Buckets() int { return len(w.buckets) }

// Merged folds the live buckets, oldest first, into one summary
// covering the whole window.
func (w *Window) Merged() WindowSummary {
	var out WindowSummary
	n := len(w.buckets)
	for i := w.filled - 1; i >= 0; i-- {
		out.Merge(&w.buckets[(w.head-i+n*2)%n])
	}
	return out
}
