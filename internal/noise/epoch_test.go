package noise_test

// Epoch-split replay equivalence: every shard × epoch combination must
// reproduce the sequential analyzer bit for bit — the stitching
// invariant of epoch.go. The hand-built traces aim the epoch cuts at
// the awkward places: inside a nested interruption, inside an open
// preemption window, across a region with no application events at
// all, and across same-timestamp span boundaries (which force the
// interruption sort's tie-break fallback).

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// shardEpochMatrix runs tr through AnalyzeParallel, AnalyzeRaw and
// AnalyzeStream at every shards × epochs combination and compares each
// report against the sequential oracle.
func shardEpochMatrix(t *testing.T, tr *trace.Trace, base noise.Options) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	want := noise.Analyze(tr, base)
	for _, shards := range []int{1, 2, 4, 8} {
		for _, epochs := range []int{1, 2, 4, 8} {
			opts := base
			opts.Epochs = epochs
			t.Run(fmt.Sprintf("shards%d/epochs%d", shards, epochs), func(t *testing.T) {
				got, err := noise.AnalyzeParallel(context.Background(), tr, opts, shards)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, want, got)
			})
			t.Run(fmt.Sprintf("shards%d/epochs%d/raw", shards, epochs), func(t *testing.T) {
				got, err := noise.AnalyzeRaw(context.Background(), bytes.NewReader(raw), int64(len(raw)), opts, shards)
				if err != nil {
					t.Fatal(err)
				}
				compareReports(t, want, got)
			})
			t.Run(fmt.Sprintf("shards%d/epochs%d/stream", shards, epochs), func(t *testing.T) {
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
		}
	}
}

// TestEpochsMatchSequential sweeps shard and epoch counts over
// simulated workload traces, for every option variant. This is the
// suite the tentpole is locked by: 1/2/4/8 shards × 1/2/4/8 epochs,
// every Report field compared (see compareReports).
func TestEpochsMatchSequential(t *testing.T) {
	for _, seed := range []uint64{3, 17} {
		tr := simTrace(seed)
		for name, opts := range optionVariants() {
			t.Run(fmt.Sprintf("seed%d/%s", seed, name), func(t *testing.T) {
				shardEpochMatrix(t, tr, opts)
			})
		}
	}
}

// TestEpochCutInsideNestedInterruption hand-builds a trace whose exits
// cluster inside nested kernel activity while a preemption window is
// open, so low epoch counts are forced to cut between a child's exit
// and its parent's — the snapshot must carry the half-closed nesting
// and the window across the boundary.
func TestEpochCutInsideNestedInterruption(t *testing.T) {
	tr := handTrace(2,
		appRunning(0, 0, 42),
		appRunning(0, 1, 43),
		// Preempt 42 while runnable: window opens and stays open across
		// several epoch cuts.
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
		// subtracted from the window (topLevel bookkeeping across cuts).
		trace.Event{TS: 200, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQNet},
		trace.Event{TS: 230, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQNet}, // exit 4
		// Second nested burst, cut-adjacent to the window close.
		trace.Event{TS: 300, CPU: 1, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 310, CPU: 1, ID: trace.EvTrapEntry, Arg1: trace.TrapPageFault},
		trace.Event{TS: 320, CPU: 1, ID: trace.EvTrapExit, Arg1: trace.TrapPageFault}, // exit 5
		trace.Event{TS: 330, CPU: 1, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},       // exit 6
		// Resume 42: the preemption span closes using window state that
		// crossed multiple epoch boundaries.
		trace.Event{TS: 400, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 7, Arg2: 42, Arg3: trace.TaskStateBlocked},
		trace.Event{TS: 450, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 470, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer}, // exit 7
	)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) { shardEpochMatrix(t, tr, opts) })
	}
}

// TestEpochZeroAppEvents covers epochs that contain no application
// events at all: with 8 epochs over a long run of bare kernel spans,
// several epochs see neither a switch nor an app pid — their snapshots
// must still thread the (empty) owner state through unchanged.
func TestEpochZeroAppEvents(t *testing.T) {
	evs := []trace.Event{}
	// No appRunning boot at all: every CPU stays ownerless, so under the
	// runnable filter none of this is noise — and with the filter off all
	// of it is. Both must stitch identically.
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
		t.Run(name, func(t *testing.T) { shardEpochMatrix(t, tr, opts) })
	}
}

// TestEpochSameTimestampTies builds spans sharing identical start and
// end timestamps — zero-width and duplicate boundaries — so the
// interruption sort cannot distinguish them by key alone and must fall
// back to the record-order tie-break, across every epoch count.
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
		t.Run(name, func(t *testing.T) { shardEpochMatrix(t, tr, opts) })
	}
}

// TestSingleEpochDegenerate pins the degenerate path: Epochs=1 must
// take the direct reportSink pass — replaying exactly like the
// pre-epoch pipeline — and match the sequential report bit for bit at
// every shard count, including on a full simulated workload.
func TestSingleEpochDegenerate(t *testing.T) {
	tr := simTrace(9)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	opts := noise.DefaultOptions()
	opts.Epochs = 1
	want := noise.Analyze(tr, opts)
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			got, err := noise.AnalyzeParallel(context.Background(), tr, opts, shards)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, want, got)
			gotRaw, err := noise.AnalyzeRaw(context.Background(), bytes.NewReader(raw), int64(len(raw)), opts, shards)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, want, gotRaw)
		})
	}
}
