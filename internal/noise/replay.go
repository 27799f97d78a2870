// Control-stream replay: the sequential phase of the parallel pipeline.
//
// Kernel nesting is per-CPU, so the walkers reconstruct spans shard by
// shard; the scheduler state is not. Preemption windows follow tasks
// across CPUs and the floating-point accumulators are fed in global
// order, so the replay runs as one pass over the small control stream
// (scheduler records interleaved with exit positions), pairing each
// exit with its walker span and recording every span straight into the
// Report in exactly the order the sequential analyzer would.

package noise

import (
	"context"

	"osnoise/internal/trace"
)

// reportSink records spans straight into the Report and builds the
// per-CPU interruption index the interruption builder consumes: one
// compact ispanKey per noise span, written in record order (the order
// the tie-breaking comparator keyCmpTotal reproduces). On the summary
// path it only accumulates: no Span or duration is kept.
type reportSink struct {
	r        *Report
	keep     bool // retain durations (never on the summary path)
	summary  bool
	n        int32 // spans emitted so far: the next span's record index
	noiseIdx [][]ispanKey
}

// emit accumulates one span, appends it unless summarising — the
// full path's two steps are Report.record's, inlined by hand because
// calling record here measured slower — and indexes it when it is
// noise.
func (k *reportSink) emit(s Span) {
	k.r.accumulate(s.Key, s.Own, s.Noise, k.keep)
	if !k.summary {
		k.r.Spans = append(k.r.Spans, s)
	}
	if s.Noise {
		k.noiseIdx[s.CPU] = append(k.noiseIdx[s.CPU], ispanKey{
			start: s.Start, end: s.Start + s.Wall, own: s.Own,
			key: s.Key, idx: k.n,
		})
	}
	k.n++
}

// replay applies the scheduler/owner/preemption-window state machine
// over the control stream, interleaving sched records and exits in
// global stream order, and records every finished span — reconstructed
// spans as their exits come up, preemption spans at the switch that
// closes their window — in exactly the sequential analyzer's order. It
// returns the preemption windows still open at the end of the trace
// (dropped, like unclosed spans) and, per CPU, the interruption index
// of the noise spans (see ispanKey), written in record order.
//
// With summary set, spans are only accumulated (see reportSink). The
// index slices come from ispanPool; the caller recycles them.
//
// The replay checks ctx every cancelStride exits and every few thousand
// scheduler records; on cancellation it returns the state it has (the
// caller detects ctx.Err() and marks the report).
func (r *Report) replay(ctx context.Context, ctl *ctlStream, walkers []cpuWalker, opts *Options, isApp func(int64) bool, summary bool) (map[int64]*window, [][]ispanKey) {
	ncpu := len(walkers)
	sink := reportSink{r: r, keep: opts.KeepDurations && !summary, summary: summary, noiseIdx: make([][]ispanKey, ncpu)}
	for c := range sink.noiseIdx {
		if n := len(walkers[c].spans); n > 0 {
			sink.noiseIdx[c] = getSlice[ispanKey](&ispanPool, n)
		}
	}
	cpus := make([]cpuState, ncpu)
	windows := make(map[int64]*window)
	lastRunner := make([]int64, ncpu)
	nextSpan := make([]int, ncpu) // per CPU, next walker span to pair with an exit
	exitSeen := make([]int, ncpu) // per CPU, exits consumed so far

	doExit := func(cpu int32) {
		ord := exitSeen[cpu]
		exitSeen[cpu]++
		spans := walkers[cpu].spans
		j := nextSpan[cpu]
		if j >= len(spans) || int(spans[j].closeOrd) != ord {
			return // this exit matched no span (walker dropped it)
		}
		nextSpan[cpu]++
		rec := spans[j]
		cs := &cpus[cpu]
		key := Key(rec.key)
		isNoise := CategoryOf(key).IsNoise()
		if opts.RunnableFilter && cs.owner == 0 {
			isNoise = false
		}
		sink.emit(Span{
			Key: key, CPU: cpu, Start: rec.start,
			Wall: rec.wall, Own: rec.own, PID: cs.owner, Noise: isNoise,
		})
		// Top-level kernel time inside a preemption window is charged to
		// its own key; subtract it from the window so the wait is not
		// double counted.
		if rec.topLevel && cs.owner != 0 && cs.current != cs.owner {
			if w := windows[cs.owner]; w != nil && w.cpu == cpu {
				w.kernelWall += rec.wall
			}
		}
	}

	pos := 0
	for i := range ctl.sched {
		sr := &ctl.sched[i]
		if i&4095 == 0 && ctx.Err() != nil {
			return windows, sink.noiseIdx
		}
		for hi := int(sr.exitsBefore); pos < hi; pos++ {
			if pos&(cancelStride-1) == 0 && ctx.Err() != nil {
				return windows, sink.noiseIdx
			}
			doExit(ctl.exitCPU[pos])
		}
		switch sr.kind {
		case clSwitch:
			cs := &cpus[sr.cpu]
			prev, next, prevState := sr.a1, sr.a2, sr.a3
			if prev != 0 && isApp(prev) {
				if prevState == trace.TaskStateRunning {
					// Preempted while runnable: open a window.
					windows[prev] = &window{start: sr.ts, cpu: sr.cpu}
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
					preempt := (sr.ts - w.start) - w.kernelWall
					if preempt > 0 {
						culprit := lastRunner[w.cpu]
						if culprit == next {
							culprit = 0
						}
						sink.emit(Span{
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
				lastRunner[sr.cpu] = next
			}

		case clMigrate:
			pid, from, to := sr.a1, sr.a2, sr.a3
			if w := windows[pid]; w != nil {
				w.cpu = int32(to)
			}
			if int(from) < ncpu && cpus[from].owner == pid {
				cpus[from].owner = 0
			}
			if int(to) < ncpu && cpus[to].owner == 0 && isApp(pid) {
				cpus[to].owner = pid
			}

		case clProcExit:
			delete(windows, sr.a1)
		}
	}
	for ; pos < len(ctl.exitCPU); pos++ {
		if pos&(cancelStride-1) == 0 && ctx.Err() != nil {
			break
		}
		doExit(ctl.exitCPU[pos])
	}
	return windows, sink.noiseIdx
}
