package noise_test

// Shard × path equivalence: every entry point of the sharded pipeline
// must reproduce the sequential analyzer bit for bit at every shard
// count. The hand-built traces aim at the replay's awkward places:
// exits inside a nested interruption while a preemption window is open,
// a long run with no application events at all, and same-timestamp
// span boundaries (which force the interruption sort's tie-break
// fallback). The suites named after epochs also sweep the deprecated
// Options.Epochs, which the pipeline ignores: every value must yield
// the same report.

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// shardPathMatrix runs tr through AnalyzeParallel, AnalyzeRaw (as
// ".../raw") and AnalyzeStream (as ".../stream") at 1, 2, 4 and 8
// shards and compares each report against the sequential oracle, and
// SummarizeStream (as ".../summary") against the oracle's report
// folded by WindowSummary.AddReport. Each
// value in epochs is set as the ignored Options.Epochs and adds an
// "epochsN" level under the shard count; without epochs there is no
// such level.
func shardPathMatrix(t *testing.T, tr *trace.Trace, base noise.Options, epochs ...int) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	want := noise.Analyze(tr, base)
	var wantSum noise.WindowSummary
	wantSum.AddReport(want)
	if len(epochs) == 0 {
		epochs = []int{0}
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, e := range epochs {
			opts := base
			name := fmt.Sprintf("shards%d", shards)
			if e > 0 {
				opts.Epochs = e
				name += fmt.Sprintf("/epochs%d", e)
			}
			t.Run(name, func(t *testing.T) {
				got, err := noise.AnalyzeParallel(context.Background(), tr, opts, shards)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, want, got)
			})
			t.Run(name+"/raw", func(t *testing.T) {
				got, err := noise.AnalyzeRaw(context.Background(), bytes.NewReader(raw), int64(len(raw)), opts, shards)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, want, got)
			})
			t.Run(name+"/stream", func(t *testing.T) {
				d, err := trace.NewDecoder(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				got, err := noise.AnalyzeStream(context.Background(), d, opts, shards)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, want, got)
			})
			t.Run(name+"/summary", func(t *testing.T) {
				d, err := trace.NewDecoder(bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				got, err := noise.SummarizeStream(context.Background(), d, opts, shards)
				if err != nil {
					t.Fatal(err)
				}
				summariesEqual(t, "SummarizeStream", wantSum, got)
			})
		}
	}
}

// ignoredEpochs are the Options.Epochs values the epoch suites sweep.
var ignoredEpochs = []int{1, 2, 4, 8}

// TestEpochsMatchSequential sweeps the shard × path matrix over
// simulated workload traces, for every option variant and every
// ignored Epochs value, every Report field compared (see
// compareReports).
func TestEpochsMatchSequential(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		tr := simTrace(seed)
		for name, opts := range optionVariants() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				shardPathMatrix(t, tr, opts, ignoredEpochs...)
			})
		}
	}
}

// TestEpochCutInsideNestedInterruption hand-builds a trace whose exits
// cluster inside nested kernel activity while a preemption window is
// open: the replay must pair every child exit before its parent's and
// carry the window's kernel-time bookkeeping until the task resumes.
func TestEpochCutInsideNestedInterruption(t *testing.T) {
	tr := handTrace(2,
		appRunning(0, 0, 42),
		appRunning(0, 1, 43),
		// Preempt 42 while runnable: window opens and stays open across
		// both nested bursts.
		trace.Event{TS: 50, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 42, Arg2: 7, Arg3: trace.TaskStateRunning},
		// Nested interruption on CPU 1: trap inside softirq inside IRQ.
		trace.Event{TS: 100, CPU: 1, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 110, CPU: 1, ID: trace.EvSoftIRQEntry, Arg1: trace.SoftIRQTimer},
		trace.Event{TS: 120, CPU: 1, ID: trace.EvTrapEntry, Arg1: trace.TrapPageFault},
		trace.Event{TS: 130, CPU: 1, ID: trace.EvTrapExit, Arg1: trace.TrapPageFault}, // exit 0
		trace.Event{TS: 140, CPU: 1, ID: trace.EvTrapEntry, Arg1: trace.TrapPageFault},
		trace.Event{TS: 150, CPU: 1, ID: trace.EvTrapExit, Arg1: trace.TrapPageFault},   // exit 1
		trace.Event{TS: 160, CPU: 1, ID: trace.EvSoftIRQExit, Arg1: trace.SoftIRQTimer}, // exit 2
		trace.Event{TS: 170, CPU: 1, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},         // exit 3
		// Kernel work on CPU 0 inside the open window: charged to its key,
		// subtracted from the window (topLevel bookkeeping).
		trace.Event{TS: 200, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQNet},
		trace.Event{TS: 230, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQNet}, // exit 4
		// Second nested burst, just before the window closes.
		trace.Event{TS: 300, CPU: 1, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 310, CPU: 1, ID: trace.EvTrapEntry, Arg1: trace.TrapPageFault},
		trace.Event{TS: 320, CPU: 1, ID: trace.EvTrapExit, Arg1: trace.TrapPageFault}, // exit 5
		trace.Event{TS: 330, CPU: 1, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},       // exit 6
		// Resume 42: the preemption span closes using window state that
		// accumulated across both bursts.
		trace.Event{TS: 400, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 7, Arg2: 42, Arg3: trace.TaskStateBlocked},
		trace.Event{TS: 450, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 470, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer}, // exit 7
	)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) { shardPathMatrix(t, tr, opts, ignoredEpochs...) })
	}
}

// TestEpochZeroAppEvents covers a trace with no application events at
// all: a long run of bare kernel spans with neither a switch nor an app
// pid, so the owner state stays empty from start to end.
func TestEpochZeroAppEvents(t *testing.T) {
	evs := []trace.Event{}
	// No appRunning boot at all: every CPU stays ownerless, so under the
	// runnable filter none of this is noise — and with the filter off all
	// of it is. Both must match the sequential analyzer.
	ts := int64(100)
	for i := 0; i < 40; i++ {
		evs = append(evs,
			trace.Event{TS: ts, CPU: int32(i % 2), ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			trace.Event{TS: ts + 20, CPU: int32(i % 2), ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		)
		ts += 100
	}
	tr := handTrace(2, evs...)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) { shardPathMatrix(t, tr, opts, ignoredEpochs...) })
	}
}

// TestEpochSameTimestampTies builds spans sharing identical start and
// end timestamps — zero-width and duplicate boundaries — so the
// interruption sort cannot distinguish them by key alone and must fall
// back to the record-order tie-break, at every shard count.
func TestEpochSameTimestampTies(t *testing.T) {
	evs := []trace.Event{appRunning(0, 0, 42), appRunning(0, 1, 43)}
	for i := 0; i < 12; i++ {
		ts := int64(100 + 50*(i/4)) // four bursts share each timestamp
		cpu := int32(i % 2)
		evs = append(evs,
			trace.Event{TS: ts, CPU: cpu, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
			trace.Event{TS: ts, CPU: cpu, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		)
	}
	tr := handTrace(2, evs...)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) { shardPathMatrix(t, tr, opts, ignoredEpochs...) })
	}
}

// TestSingleEpochDegenerate runs the seed-9 simulated workload with
// default options through the shard × path matrix. It once pinned the
// single-epoch pass, which is now the only replay.
func TestSingleEpochDegenerate(t *testing.T) {
	shardPathMatrix(t, simTrace(9), noise.DefaultOptions())
}
