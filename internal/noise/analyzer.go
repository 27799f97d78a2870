package noise

import (
	"cmp"
	"slices"

	"osnoise/internal/trace"
)

// Options tunes the analysis. The zero value is NOT ready to use; start
// from DefaultOptions.
type Options struct {
	// AppPIDs identifies the application processes (the noise victims).
	// Nil means every non-zero pid is treated as an application.
	AppPIDs map[int64]bool

	// AttributeNesting subtracts nested activity time from enclosing
	// spans so each event's own cost is exact. Disabling it reproduces
	// the double counting naive instrumentation suffers (ablation).
	AttributeNesting bool

	// RunnableFilter applies the paper's rule that kernel activity is
	// noise only when an application process is running or runnable on
	// the CPU. Disabling it counts every kernel span as noise (ablation).
	RunnableFilter bool

	// GapNS merges noise activities separated by at most this much user
	// time into one interruption (the spike an external benchmark sees).
	GapNS int64

	// KeepDurations retains raw per-event durations for histograms.
	KeepDurations bool

	// FromNS/ToNS restrict the analysis to a time window (both zero =
	// whole trace) — the zooming workflow of the paper's §III-C.
	// Events outside the window are ignored; spans straddling the
	// boundary are dropped like any other truncated span.
	FromNS, ToNS int64

	// Budget bounds the resources the analysis may consume; the zero
	// value imposes no limits. Event/byte caps truncate ingestion to a
	// prefix (the report is marked Incomplete), the interruption cap
	// reservoir-samples the retained detail records. See Budget.
	Budget Budget

	// Epochs is ignored: the parallel pipeline's replay is always one
	// sequential pass.
	//
	// Deprecated: the field remains only so existing callers that set it
	// still compile.
	Epochs int
}

// DefaultOptions returns the analysis configuration used throughout the
// paper reproduction.
func DefaultOptions() Options {
	return Options{
		AttributeNesting: true,
		RunnableFilter:   true,
		GapNS:            1000,
		KeepDurations:    true,
	}
}

// openSpan is a kernel activity whose exit has not been seen yet.
type openSpan struct {
	key       Key
	start     int64
	childWall int64
	exitID    trace.ID
}

// window is an open preemption window for a runnable-but-preempted task.
type window struct {
	start      int64
	cpu        int32
	kernelWall int64
}

// cpuState is the per-CPU walking state.
type cpuState struct {
	stack   []openSpan
	owner   int64 // pid of the app running or runnable-waiting here
	current int64 // pid currently running (0 = idle)
}

// Analyze runs the full noise analysis over a collected trace. An
// event/byte budget in opts truncates the analysis to the trace's
// prefix (the report is then marked Incomplete and Seconds covers the
// consumed prefix only).
//
//noisevet:hotpath
func Analyze(tr *trace.Trace, opts Options) *Report {
	events, truncated := opts.Budget.truncate(tr.Events)
	r := &Report{CPUs: tr.CPUs, Seconds: tr.DurationSeconds()}
	if truncated {
		r.Incomplete = true
		r.Seconds = spanSeconds(events)
	}
	r.EventsConsumed = uint64(len(events))
	if opts.ToNS > opts.FromNS && (opts.FromNS != 0 || opts.ToNS != 0) {
		r.Seconds = float64(opts.ToNS-opts.FromNS) / 1e9
	}
	for k := Key(0); k < NumKeys; k++ {
		r.PerKey[k] = &KeyStats{Key: k}
	}
	appPIDs := opts.AppPIDs
	if appPIDs == nil {
		// The trace's embedded process table (LTTng metadata analogue)
		// identifies the application processes for offline analysis.
		appPIDs = tr.AppPIDs()
	}
	isApp := func(pid int64) bool {
		if pid == 0 {
			return false
		}
		if appPIDs == nil {
			return true
		}
		return appPIDs[pid]
	}

	cpus := make([]cpuState, tr.CPUs)
	windows := make(map[int64]*window) // open preemption windows per pid
	lastRunner := make([]int64, tr.CPUs)

	record := func(s Span) { r.record(s, opts.KeepDurations) }

	windowed := opts.FromNS != 0 || opts.ToNS != 0
	for _, ev := range events {
		if windowed && (ev.TS < opts.FromNS || (opts.ToNS > 0 && ev.TS > opts.ToNS)) {
			continue
		}
		if ev.CPU < 0 || int(ev.CPU) >= len(cpus) {
			r.Dropped++
			continue
		}
		cs := &cpus[ev.CPU]
		switch {
		case ev.ID.IsEntry():
			cs.stack = append(cs.stack, openSpan{
				key:    keyOfSpan(ev.ID, ev.Arg1),
				start:  ev.TS,
				exitID: ev.ID.ExitFor(),
			})

		case ev.ID.IsExit():
			if len(cs.stack) == 0 {
				r.Dropped++ // span began before tracing started
				continue
			}
			top := cs.stack[len(cs.stack)-1]
			if top.exitID != ev.ID {
				// Corrupt nesting; drop the whole stack for this CPU.
				r.Dropped += len(cs.stack)
				cs.stack = cs.stack[:0]
				continue
			}
			cs.stack = cs.stack[:len(cs.stack)-1]
			wall := ev.TS - top.start
			own := wall
			if opts.AttributeNesting {
				own = wall - top.childWall
				if own < 0 {
					own = 0
				}
			}
			if len(cs.stack) > 0 {
				cs.stack[len(cs.stack)-1].childWall += wall
			}
			cat := CategoryOf(top.key)
			isNoise := cat.IsNoise()
			if opts.RunnableFilter && cs.owner == 0 {
				isNoise = false
			}
			record(Span{
				Key: top.key, CPU: ev.CPU, Start: top.start,
				Wall: wall, Own: own, PID: cs.owner, Noise: isNoise,
			})
			// Top-level kernel time inside a preemption window is
			// charged to its own key; subtract it from the window so
			// the wait is not double counted.
			if len(cs.stack) == 0 && cs.owner != 0 && cs.current != cs.owner {
				if w := windows[cs.owner]; w != nil && w.cpu == ev.CPU {
					w.kernelWall += wall
				}
			}

		case ev.ID == trace.EvSchedSwitch:
			prev, next, prevState := ev.Arg1, ev.Arg2, ev.Arg3
			if prev != 0 && isApp(prev) {
				if prevState == trace.TaskStateRunning {
					// Preempted while runnable: open a window.
					windows[prev] = &window{start: ev.TS, cpu: ev.CPU}
					if cs.owner == 0 {
						cs.owner = prev
					}
				} else {
					// Voluntary block: no victim remains.
					delete(windows, prev)
					if cs.owner == prev {
						cs.owner = 0
					}
				}
			}
			if next != 0 && isApp(next) {
				if w := windows[next]; w != nil {
					preempt := (ev.TS - w.start) - w.kernelWall
					if preempt > 0 {
						culprit := lastRunner[w.cpu]
						if culprit == next {
							culprit = 0
						}
						record(Span{
							Key: KeyPreemption, CPU: w.cpu, Start: w.start,
							Wall: preempt, Own: preempt, PID: next,
							Culprit: culprit, Noise: true,
						})
					}
					delete(windows, next)
				}
				cs.owner = next
			}
			cs.current = next
			if next != 0 {
				lastRunner[ev.CPU] = next
			}

		case ev.ID == trace.EvSchedMigrate:
			pid, from, to := ev.Arg1, ev.Arg2, ev.Arg3
			if w := windows[pid]; w != nil {
				w.cpu = int32(to)
			}
			if int(from) < len(cpus) && cpus[from].owner == pid {
				cpus[from].owner = 0
			}
			if int(to) < len(cpus) && cpus[to].owner == 0 && isApp(pid) {
				cpus[to].owner = pid
			}

		case ev.ID == trace.EvProcessExit:
			delete(windows, ev.Arg1)
		}
	}
	// Unclosed spans and windows at the trace boundary are dropped.
	for i := range cpus {
		r.Dropped += len(cpus[i].stack)
	}
	r.Dropped += len(windows)

	r.buildInterruptions(opts.GapNS)
	r.applyInterruptionBudget(opts.Budget)
	return r
}

// record accumulates one finished span into the report and appends it
// to the global span list. The sequential analyzer feeds every span
// through it; the parallel replay (reportSink.emit) takes the same two
// steps in the same global order, which is what makes their reports
// bit-identical (floating-point accumulation is order-sensitive).
func (r *Report) record(s Span, keep bool) {
	r.accumulate(s.Key, s.Own, s.Noise, keep)
	r.Spans = append(r.Spans, s)
}

// accumulate folds one finished span — its key, own time and noise
// flag — into the report's aggregates: per-key summary (and raw
// duration when keep is set) and the noise breakdown. The summary-only
// pipeline calls it alone, in the same order, so its aggregates match
// the full report's. It takes the three fields, not the Span, so the
// per-span call passes its arguments in registers.
//
//noisevet:hotpath
func (r *Report) accumulate(k Key, own int64, noise, keep bool) {
	ks := r.PerKey[k]
	ks.Summary.Add(own)
	if keep {
		ks.Durations = append(ks.Durations, own)
	}
	if noise {
		r.Breakdown[CategoryOf(k)] += own
		r.TotalNoiseNS += own
	}
}

// noiseByCPU groups the report's noise spans per CPU, indexed by CPU id
// (span CPUs are validated against the CPU count at ingestion, so the
// index is always in range), and returns the occupied CPU ids in
// ascending order. The slice index replaces a map so the grouping is
// iteration-order-free and allocation-light on the Analyze hot path.
func (r *Report) noiseByCPU() ([][]Span, []int32) {
	byCPU := make([][]Span, r.CPUs)
	for _, s := range r.Spans {
		if s.Noise {
			byCPU[s.CPU] = append(byCPU[s.CPU], s)
		}
	}
	cpuIDs := make([]int32, 0, len(byCPU))
	for cpu, spans := range byCPU {
		if len(spans) > 0 {
			cpuIDs = append(cpuIDs, int32(cpu))
		}
	}
	return byCPU, cpuIDs
}

// compareSpans orders noise spans by start time, ties by end time
// descending, so an enclosing span precedes the spans nested in it.
func compareSpans(a, b Span) int {
	if a.Start != b.Start {
		return cmp.Compare(a.Start, b.Start)
	}
	return cmp.Compare(b.Start+b.Wall, a.Start+a.Wall)
}

// interruptionsForCPU groups one CPU's noise spans (sorted in place) into
// maximal interruptions separated by more than gap nanoseconds of user
// time. CPUs are independent here — interruption grouping never crosses
// a CPU — so the parallel analyzer runs this per CPU concurrently and
// concatenates in CPU order, reproducing the sequential output exactly.
//
// The sort must be STABLE: two spans sharing both start and end (same-
// timestamp boundaries) keep their record order, the contract the
// parallel path reproduces with an explicit record-index tie-break
// (keyCmpTotal). An unstable sort here would order tied components
// arbitrarily and the two paths could diverge. Every stable sort gives
// the same output for a given comparator, whatever its algorithm.
func interruptionsForCPU(cpu int32, spans []Span, gap int64) []Interruption {
	slices.SortStableFunc(spans, compareSpans)
	// Worst case every span is its own interruption; the slice is copied
	// into the report and discarded, so the over-cap is transient.
	out := make([]Interruption, 0, len(spans))
	var cur *Interruption
	for _, s := range spans {
		end := s.Start + s.Wall
		if cur != nil && s.Start-cur.End <= gap {
			cur.Components = append(cur.Components, Component{Key: s.Key, Start: s.Start, Own: s.Own})
			cur.Total += s.Own
			if end > cur.End {
				cur.End = end
			}
			continue
		}
		if cur != nil {
			out = append(out, *cur)
		}
		cur = &Interruption{
			CPU: cpu, Start: s.Start, End: end, Total: s.Own,
			Components: []Component{{Key: s.Key, Start: s.Start, Own: s.Own}},
		}
	}
	if cur != nil {
		out = append(out, *cur)
	}
	return out
}

// buildInterruptions groups adjacent noise spans per CPU into the spikes
// an external micro-benchmark would observe.
func (r *Report) buildInterruptions(gap int64) {
	byCPU, cpuIDs := r.noiseByCPU()
	for _, cpu := range cpuIDs {
		r.Interruptions = append(r.Interruptions, interruptionsForCPU(cpu, byCPU[cpu], gap)...)
	}
}
