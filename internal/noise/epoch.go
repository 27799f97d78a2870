// Epoch-split replay: the sequential phase of the parallel pipeline,
// decomposed by time-epoch.
//
// The control-stream replay is inherently order-sensitive — preemption
// windows follow tasks across CPUs and the floating-point accumulators
// are fed in global order — which is why it ran as one sequential pass.
// This file splits that pass into E epochs cut at exit positions: a
// cheap sequential pre-pass runs only the state machine (no recording)
// to snapshot the scheduler state at every cut, then the epochs replay
// concurrently from their snapshots into epoch-local span buffers, and
// a final merge feeds the buffered spans through Report.record in
// exactly the sequential order.
//
// The stitching invariant: an epoch's entry snapshot carries the whole
// cross-epoch state — per-CPU owner/current, the open preemption
// windows (deep-copied, since replay mutates window.kernelWall in
// place), lastRunner, and the per-CPU exit/span cursors that pair exits
// with walker spans. Given identical entry state, an epoch emits
// exactly the spans the sequential replay would have emitted over the
// same range, so concatenating the epochs' spans reproduces the
// sequential emission order — and replaying that order through
// Report.record reproduces the order-sensitive per-key Welford moments
// bit for bit. TestEpochsMatchSequential locks this across shard and
// epoch counts.

package noise

import (
	"context"
	"runtime"
	"sort"

	"osnoise/internal/trace"
)

// replayState is the cross-CPU scheduler state the control-stream
// replay threads through the trace: everything an epoch needs to resume
// where the previous epoch stopped.
type replayState struct {
	cpus       []cpuState
	windows    map[int64]*window
	lastRunner []int64
	nextSpan   []int // per CPU, next walker span to pair with an exit
	exitSeen   []int // per CPU, exits consumed so far
}

// newReplayState returns the boot state: no owners, no open windows.
func newReplayState(ncpu int) *replayState {
	return &replayState{
		cpus:       make([]cpuState, ncpu),
		windows:    make(map[int64]*window),
		lastRunner: make([]int64, ncpu),
		nextSpan:   make([]int, ncpu),
		exitSeen:   make([]int, ncpu),
	}
}

// clone deep-copies the state so a concurrent epoch cannot observe
// another epoch's mutations — window structs in particular are mutated
// in place (kernelWall) during replay.
func (st *replayState) clone() *replayState {
	c := &replayState{
		cpus:       make([]cpuState, len(st.cpus)),
		windows:    make(map[int64]*window, len(st.windows)),
		lastRunner: make([]int64, len(st.lastRunner)),
		nextSpan:   make([]int, len(st.nextSpan)),
		exitSeen:   make([]int, len(st.exitSeen)),
	}
	copy(c.cpus, st.cpus)
	copy(c.lastRunner, st.lastRunner)
	copy(c.nextSpan, st.nextSpan)
	copy(c.exitSeen, st.exitSeen)
	for pid, w := range st.windows {
		cw := *w
		c.windows[pid] = &cw
	}
	return c
}

// replaySink consumes the spans the replay emits, in emission order.
// The three implementations give the one state machine its three uses:
// recording directly into the Report (single-epoch path), buffering
// into an epoch-local accumulator (concurrent epochs), and discarding
// (the boundary pre-pass). The generic instantiation of replayCore
// dispatches emit statically.
type replaySink interface {
	emit(s Span)
}

// reportSink records spans straight into the Report and builds the
// per-CPU interruption index the interruption builder consumes: one
// compact ispanKey per noise span, written in record order (the order
// the tie-breaking comparator keyCmpTotal reproduces).
type reportSink struct {
	r        *Report
	keep     bool
	noiseIdx [][]ispanKey
}

// emit accumulates one span and indexes it when it is noise.
func (k *reportSink) emit(s Span) {
	k.r.record(s, k.keep)
	if s.Noise {
		k.noiseIdx[s.CPU] = append(k.noiseIdx[s.CPU], ispanKey{
			start: s.Start, end: s.Start + s.Wall, own: s.Own,
			key: s.Key, idx: int32(len(k.r.Spans) - 1),
		})
	}
}

// nullSink discards spans; the pre-pass wants only the state effects.
type nullSink struct{}

// emit discards the span.
func (nullSink) emit(Span) {}

// epochSink buffers one epoch's spans for the sequential merge.
type epochSink struct {
	spans []Span
}

// emit buffers one span.
func (k *epochSink) emit(s Span) { k.spans = append(k.spans, s) }

// replayCore advances the scheduler/owner/preemption-window state
// machine over the control stream's sched records [s0,s1) and exit
// positions [p0,p1), interleaved in global stream order, emitting every
// finished span — reconstructed spans as their exits come up,
// preemption spans at the switch that closes their window — into sink.
// It mutates st in place and returns false if ctx was cancelled
// mid-walk (the state is then positioned wherever the walk stopped).
//
// This is the one replay implementation: the sequential path runs it
// once over the whole stream, the epoch pre-pass runs it with a null
// sink, and the concurrent epochs each run it over their slice.
func replayCore[S replaySink](ctx context.Context, ctl *ctlStream, walkers []cpuWalker, opts *Options, isApp func(int64) bool, st *replayState, sink S, s0, s1, p0, p1 int) bool {
	ncpu := len(walkers)
	cpus := st.cpus
	windows := st.windows

	doExit := func(cpu int32) {
		ord := st.exitSeen[cpu]
		st.exitSeen[cpu]++
		spans := walkers[cpu].spans
		j := st.nextSpan[cpu]
		if j >= len(spans) || int(spans[j].closeOrd) != ord {
			return // this exit matched no span (walker dropped it)
		}
		st.nextSpan[cpu]++
		rec := spans[j]
		cs := &cpus[cpu]
		key := Key(rec.key)
		cat := CategoryOf(key)
		isNoise := cat.IsNoise()
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

	pos := p0
	for i := s0; i < s1; i++ {
		sr := &ctl.sched[i]
		if i&4095 == 0 && ctx.Err() != nil {
			return false
		}
		hi := int(sr.exitsBefore)
		if hi > p1 {
			hi = p1 // never binds: epoch cuts keep exitsBefore within range
		}
		for pos < hi {
			if pos&(cancelStride-1) == 0 && ctx.Err() != nil {
				return false
			}
			doExit(ctl.exitCPU[pos])
			pos++
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
						culprit := st.lastRunner[w.cpu]
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
				st.lastRunner[sr.cpu] = next
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
	for pos < p1 {
		if pos&(cancelStride-1) == 0 && ctx.Err() != nil {
			return false
		}
		doExit(ctl.exitCPU[pos])
		pos++
	}
	return true
}

// replay applies the scheduler/owner/preemption-window state machine
// over the control stream and records every span in exactly the
// sequential analyzer's order. With opts.Epochs ≤ 1 it is one
// sequential pass; otherwise the stream is cut into epochs replayed
// concurrently on up to `workers` goroutines and merged (see the file
// comment for the stitching invariant). Either way it returns the
// preemption windows still open at the end of the trace (dropped, like
// unclosed spans) and, per CPU, the interruption index of the noise
// spans (see ispanKey), written in record order.
//
// The replay checks ctx every cancelStride exits and every few thousand
// scheduler records; on cancellation it returns the state it has (the
// caller detects ctx.Err() and marks the report).
func (r *Report) replay(ctx context.Context, ctl ctlStream, walkers []cpuWalker, opts Options, isApp func(int64) bool, workers int) (map[int64]*window, [][]ispanKey) {
	ncpu := len(walkers)
	noiseIdx := make([][]ispanKey, ncpu)
	for c := range noiseIdx {
		if n := len(walkers[c].spans); n > 0 {
			noiseIdx[c] = make([]ispanKey, 0, n)
		}
	}
	epochs := opts.Epochs
	if epochs <= 0 {
		// Auto: one epoch per core actually available to run one, capped
		// by the shard count. On a single-core runtime the split cannot
		// win (the pre-pass and merge are pure overhead), so auto picks
		// the sequential path there.
		epochs = workers
		if g := runtime.GOMAXPROCS(0); epochs > g {
			epochs = g
		}
	}
	if epochs > len(ctl.exitCPU) {
		epochs = len(ctl.exitCPU) // every epoch keeps at least one exit
	}
	if epochs <= 1 {
		// Degenerate single-epoch path: one sequential pass recording
		// straight into the report — exactly the pre-epoch replay.
		st := newReplayState(ncpu)
		sink := &reportSink{r: r, keep: opts.KeepDurations, noiseIdx: noiseIdx}
		replayCore(ctx, &ctl, walkers, &opts, isApp, st, sink, 0, len(ctl.sched), 0, len(ctl.exitCPU))
		return st.windows, sink.noiseIdx
	}
	return r.replayEpochs(ctx, ctl, walkers, opts, isApp, noiseIdx, epochs, workers)
}

// replayEpochs is the epoch-split replay: boundary pre-pass, concurrent
// per-epoch replay, sequential merge. epochs is ≥ 2 and ≤ the exit
// count.
func (r *Report) replayEpochs(ctx context.Context, ctl ctlStream, walkers []cpuWalker, opts Options, isApp func(int64) bool, noiseIdx [][]ispanKey, epochs, workers int) (map[int64]*window, [][]ispanKey) {
	ncpu := len(walkers)
	nExit := len(ctl.exitCPU)

	// Cut the stream at exit positions; each epoch's sched range follows
	// by binary search (exitsBefore is monotone in stream order). A sched
	// record sitting exactly on a cut — exitsBefore == cutP[e] — belongs
	// to epoch e, which processes it before its first exit, exactly where
	// the sequential pass would.
	cutP := make([]int, epochs+1)
	cutS := make([]int, epochs+1)
	for e := 0; e <= epochs; e++ {
		cutP[e] = e * nExit / epochs
	}
	cutS[epochs] = len(ctl.sched)
	for e := 1; e < epochs; e++ {
		p := cutP[e]
		cutS[e] = sort.Search(len(ctl.sched), func(i int) bool {
			return int(ctl.sched[i].exitsBefore) >= p
		})
	}

	// Pre-pass: one sequential null-sink walk over epochs 0..E-2
	// snapshots the scheduler state at every cut. Only the state machine
	// runs — no recording, no accumulator work.
	states := make([]*replayState, epochs)
	states[0] = newReplayState(ncpu)
	pre := states[0].clone()
	for e := 0; e < epochs-1; e++ {
		if !replayCore(ctx, &ctl, walkers, &opts, isApp, pre, nullSink{}, cutS[e], cutS[e+1], cutP[e], cutP[e+1]) {
			return pre.windows, noiseIdx
		}
		states[e+1] = pre.clone()
	}

	// Concurrent epoch replay into epoch-local span buffers.
	total := 0
	for i := range walkers {
		total += len(walkers[i].spans)
	}
	perEpoch := (total+ctl.switches)/epochs + 16
	sinks := make([]epochSink, epochs)
	parallelFor(ctx, epochs, workers, func(e int) {
		sinks[e].spans = make([]Span, 0, perEpoch)
		replayCore(ctx, &ctl, walkers, &opts, isApp, states[e], &sinks[e], cutS[e], cutS[e+1], cutP[e], cutP[e+1])
	})
	final := states[epochs-1].windows
	if ctx.Err() != nil {
		return final, noiseIdx
	}

	// Merge: epoch order is stream order, so feeding the buffered spans
	// through record epoch by epoch reproduces the sequential emission
	// order — and with it the order-sensitive floating-point moments.
	sink := &reportSink{r: r, keep: opts.KeepDurations, noiseIdx: noiseIdx}
	for e := range sinks {
		for _, s := range sinks[e].spans {
			sink.emit(s)
		}
	}
	return final, noiseIdx
}
