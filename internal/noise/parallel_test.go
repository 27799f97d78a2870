package noise_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// compareReports asserts got is bit-identical to want, including the
// order-sensitive floating-point summary state (compared via Float64bits
// of the derived moments, since m2/mean are unexported).
func compareReports(t *testing.T, want, got *noise.Report) {
	t.Helper()
	if want.CPUs != got.CPUs || math.Float64bits(want.Seconds) != math.Float64bits(got.Seconds) {
		t.Errorf("header: want cpus=%d s=%x, got cpus=%d s=%x",
			want.CPUs, math.Float64bits(want.Seconds), got.CPUs, math.Float64bits(got.Seconds))
	}
	if want.Dropped != got.Dropped {
		t.Errorf("dropped: want %d, got %d", want.Dropped, got.Dropped)
	}
	// Accounting invariant: every ingested record is either consumed or
	// (for routing rejects) counted in Dropped — the parallel paths must
	// agree with the sequential analyzer on both tallies, which the
	// out-of-range-CPU events in the handmade trace exercise.
	if want.EventsConsumed != got.EventsConsumed {
		t.Errorf("events consumed: want %d, got %d", want.EventsConsumed, got.EventsConsumed)
	}
	if want.TotalNoiseNS != got.TotalNoiseNS {
		t.Errorf("total noise: want %d, got %d", want.TotalNoiseNS, got.TotalNoiseNS)
	}
	if want.Breakdown != got.Breakdown {
		t.Errorf("breakdown: want %v, got %v", want.Breakdown, got.Breakdown)
	}
	for k := noise.Key(0); k < noise.NumKeys; k++ {
		ws, gs := want.PerKey[k], got.PerKey[k]
		if ws.Summary != gs.Summary {
			t.Errorf("%v summary: want %+v, got %+v", k, ws.Summary, gs.Summary)
		}
		if math.Float64bits(ws.Summary.Mean()) != math.Float64bits(gs.Summary.Mean()) ||
			math.Float64bits(ws.Summary.StdDev()) != math.Float64bits(gs.Summary.StdDev()) {
			t.Errorf("%v moments differ: want mean=%v sd=%v, got mean=%v sd=%v",
				k, ws.Summary.Mean(), ws.Summary.StdDev(), gs.Summary.Mean(), gs.Summary.StdDev())
		}
		if !reflect.DeepEqual(ws.Durations, gs.Durations) {
			t.Errorf("%v durations differ: %d vs %d entries", k, len(ws.Durations), len(gs.Durations))
		}
	}
	if !reflect.DeepEqual(want.Spans, got.Spans) {
		t.Errorf("spans differ: %d vs %d", len(want.Spans), len(got.Spans))
		for i := range want.Spans {
			if i < len(got.Spans) && want.Spans[i] != got.Spans[i] {
				t.Errorf("first divergence at span %d: want %+v, got %+v", i, want.Spans[i], got.Spans[i])
				break
			}
		}
	}
	if !reflect.DeepEqual(want.Interruptions, got.Interruptions) {
		t.Errorf("interruptions differ: %d vs %d", len(want.Interruptions), len(got.Interruptions))
	}
}

// handTrace builds a trace from literal events.
func handTrace(cpus int, evs ...trace.Event) *trace.Trace {
	return &trace.Trace{CPUs: cpus, Events: evs}
}

// appRunning returns the boot switch that puts pid on cpu.
func appRunning(ts int64, cpu int32, pid int64) trace.Event {
	return trace.Event{TS: ts, CPU: cpu, ID: trace.EvSchedSwitch,
		Arg1: 0, Arg2: pid, Arg3: trace.TaskStateBlocked}
}

// simTrace runs a workload simulation long enough to exercise nesting,
// preemption windows, and migrations across several CPUs.
func simTrace(seed uint64) *trace.Trace {
	return workload.New(workload.AMG(), workload.Options{
		Duration: sim.Second / 2,
		Seed:     seed,
	}).Execute()
}

func optionVariants() map[string]noise.Options {
	base := noise.DefaultOptions()
	noNest := base
	noNest.AttributeNesting = false
	noFilter := base
	noFilter.RunnableFilter = false
	noDur := base
	noDur.KeepDurations = false
	windowed := base
	windowed.FromNS = 50_000_000
	windowed.ToNS = 350_000_000
	return map[string]noise.Options{
		"default":  base,
		"noNest":   noNest,
		"noFilter": noFilter,
		"noDur":    noDur,
		"windowed": windowed,
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 6, 42} {
		tr := simTrace(seed)
		for name, opts := range optionVariants() {
			want := noise.Analyze(tr, opts)
			for _, shards := range []int{1, 2, 4, 8, tr.CPUs*2 + 3} {
				t.Run(fmt.Sprintf("seed%d/%s/shards%d", seed, name, shards), func(t *testing.T) {
					got, err := noise.AnalyzeParallel(context.Background(), tr, opts, shards)
					if err != nil {
						t.Fatal(err)
					}
					compareReports(t, want, got)
				})
			}
		}
	}
}

func TestStreamMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 6} {
		tr := simTrace(seed)
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		for name, opts := range optionVariants() {
			want := noise.Analyze(tr, opts)
			for _, shards := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("seed%d/%s/shards%d", seed, name, shards), func(t *testing.T) {
					d, err := trace.NewDecoder(bytes.NewReader(buf.Bytes()))
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
}

// TestRawMatchesSequential locks the zero-materialisation path: running
// the analysis straight off the encoded trace bytes must reproduce the
// sequential report bit for bit, windowing and ablations included.
func TestRawMatchesSequential(t *testing.T) {
	for _, seed := range []uint64{1, 6} {
		tr := simTrace(seed)
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		for name, opts := range optionVariants() {
			want := noise.Analyze(tr, opts)
			for _, shards := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("seed%d/%s/shards%d", seed, name, shards), func(t *testing.T) {
					got, err := noise.AnalyzeRaw(context.Background(), bytes.NewReader(raw), int64(len(raw)), opts, shards)
					if err != nil {
						t.Fatal(err)
					}
					compareReports(t, want, got)
				})
			}
		}
	}
}

// TestParallelHandmade exercises the tricky cross-CPU scheduler cases on
// a hand-built trace — migration of a preempted task, out-of-range CPUs,
// unmatched exits, and process exit closing a window — across the
// shard × path matrix.
func TestParallelHandmade(t *testing.T) {
	tr := handTrace(2,
		appRunning(0, 0, 42),
		trace.Event{TS: 100, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		trace.Event{TS: 300, CPU: 1, ID: trace.EvIRQEntry, Arg1: trace.IRQNet},
		// Preempt 42 on cpu 0 while runnable.
		trace.Event{TS: 400, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 42, Arg2: 7, Arg3: trace.TaskStateRunning},
		trace.Event{TS: 500, CPU: 0, ID: trace.EvIRQExit, Arg1: trace.IRQTimer},
		// Migrate the preempted task to cpu 1.
		trace.Event{TS: 600, CPU: 0, ID: trace.EvSchedMigrate, Arg1: 42, Arg2: 0, Arg3: 1},
		trace.Event{TS: 700, CPU: 1, ID: trace.EvIRQExit, Arg1: trace.IRQNet},
		// Unmatched exit on cpu 1 (span began before tracing).
		trace.Event{TS: 750, CPU: 1, ID: trace.EvTaskletExit, Arg1: trace.SoftIRQTimer},
		// Out-of-range CPU event must be dropped identically.
		trace.Event{TS: 760, CPU: 9, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
		// Resume 42 on cpu 1, closing the migrated window there.
		trace.Event{TS: 900, CPU: 1, ID: trace.EvSchedSwitch, Arg1: 0, Arg2: 42, Arg3: trace.TaskStateBlocked},
		// A second app task exits while preempted.
		trace.Event{TS: 950, CPU: 0, ID: trace.EvSchedSwitch, Arg1: 7, Arg2: 8, Arg3: trace.TaskStateRunning},
		trace.Event{TS: 980, CPU: 0, ID: trace.EvProcessExit, Arg1: 7},
		// Leftover open span at the boundary.
		trace.Event{TS: 990, CPU: 0, ID: trace.EvIRQEntry, Arg1: trace.IRQTimer},
	)
	for name, opts := range optionVariants() {
		t.Run(name, func(t *testing.T) { shardPathMatrix(t, tr, opts) })
	}
}
