// Parallel analysis pipeline.
//
// The tracer captures into per-CPU rings precisely so that recording
// scales with core count; this file gives the offline analyzer the same
// shape. Kernel-activity nesting is per-CPU by construction (an
// interrupt nests inside whatever its own CPU was doing), so the
// expensive part of the analysis — reconstructing spans from entry/exit
// tracepoints with exact nested-time attribution — shards across CPUs
// with no approximation. What does NOT shard is the scheduler state:
// preemption windows follow a task when it migrates between CPUs, so
// owner/window tracking is replayed over the scheduler events alone,
// in one sequential pass (replay.go).
//
// AnalyzeParallel, AnalyzeRaw and AnalyzeStream are thin wrappers over
// one pipeline; they differ only in their source — how events reach it:
//
//  1. route (source-specific producers): each source cuts its events
//     into chunks — an in-memory slice and a raw trace into one
//     record range per worker, routed concurrently; a decoder into
//     fixed-size chunks as it reads — and chunk.route sorts every
//     event into per-CPU entry/exit segments (compact 16-byte records
//     carrying exactly what span reconstruction needs) plus the
//     chunk's piece of the global, order-preserving control stream.
//     Each chunk is published on the ordered hand-off the moment it
//     is routed;
//  2. walk (parallel, overlapped with routing): each walker owns a
//     fixed set of CPUs and steps their segments of every chunk in
//     stream order as the chunks are published — stack nesting,
//     wall/own attribution — recycling each segment once walked;
//  3. replay: the chunks' control-stream pieces are stitched and
//     walked once, applying the scheduler/owner/preemption-window state
//     machine and feeding every finished span through Report.record in
//     exactly the order the sequential analyzer would have.
//
// Because phase 3 performs the same accumulator calls in the same order
// as Analyze, the resulting Report is bit-identical to the sequential
// one — including the order-sensitive floating-point summary fields.
// TestParallelMatchesSequential and TestEpochsMatchSequential lock this
// invariant. SummarizeStream runs the stream source in summary mode,
// which makes the same accumulator calls but keeps no spans and only
// counts the interruptions.
//
// The walkers also pre-count spans per key, so the replay appends into
// exactly-sized slices — the sequential analyzer cannot know those
// counts without a second pass, which is how the pipeline stays ahead
// even before any shard runs concurrently. The large scratch buffers
// (per-CPU segments, decode arenas, walker span lists) are recycled
// through sync.Pools, so a steady-state consumer — the noised daemon,
// the pipeline benchmark's repetitions — stops paying allocation and
// page-zeroing costs after the first run.
//
// Every entry point takes a context.Context and checks it at batch and
// shard boundaries (see resilience.go): each phase joins its workers
// before returning, so cancellation never leaks a goroutine, and a
// cancelled run returns a Report marked Incomplete together with an
// error wrapping ErrCancelled.
package noise

import (
	"context"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"osnoise/internal/trace"
)

// cancelStride is how many event records a worker processes between
// cooperative cancellation checks. Large enough that the ctx.Err() load
// is invisible on the hot path, small enough that cancellation lands
// within microseconds.
const cancelStride = 8192

// maxRouted is the most event records one pipeline run routes: the
// control stream positions scheduler records by int32 exit counts
// (schedRec.exitsBefore). Past it (an ~86 GB trace) a source that can be
// re-read falls back to the sequential analyzer, which produces the
// identical report, and a stream stops there as at an event budget. A
// variable so tests can reach both outcomes with a small trace.
var maxRouted uint64 = math.MaxInt32

// cev is one routed entry or exit record in a per-CPU sub-stream: the
// 16 bytes of a 40-byte trace.Event that span reconstruction actually
// consumes. For an entry, id is the expected exit tracepoint and key
// the span's pre-classified activity Key (both computed while routing,
// off the walkers' critical path); for an exit, id is the exit
// tracepoint itself and key is cevExit.
type cev struct {
	ts  int64
	id  uint16
	key uint16
}

// cevExit marks a cev as an exit record. Activity keys are small
// (< NumKeys), so the all-ones pattern can never collide with one.
const cevExit = ^uint16(0)

// Event classes for routing, precomputed per tracepoint ID so the
// per-record work is one table load and one switch instead of a chain
// of multi-case comparisons. The three scheduler classes double as the
// control stream's record kinds (schedRec.kind).
const (
	clIgnore uint8 = iota
	clEntry
	clExit
	clSwitch
	clMigrate
	clProcExit
)

// evClass maps every tracepoint ID to its routing class.
var evClass = buildEvClass()

// buildEvClass derives the routing table from the ID predicates the
// sequential analyzer switches on, so the two can never disagree.
func buildEvClass() (t [trace.NumIDs]uint8) {
	for id := trace.ID(0); int(id) < trace.NumIDs; id++ {
		switch {
		case id.IsEntry():
			t[id] = clEntry
		case id.IsExit():
			t[id] = clExit
		case id == trace.EvSchedSwitch:
			t[id] = clSwitch
		case id == trace.EvSchedMigrate:
			t[id] = clMigrate
		case id == trace.EvProcessExit:
			t[id] = clProcExit
		}
	}
	return t
}

// classOf routes one tracepoint ID, tolerating IDs beyond the table (a
// corrupt or newer-format record classifies as ignored, exactly as the
// sequential analyzer's predicate chain would).
func classOf(id trace.ID) uint8 {
	if int(id) < len(evClass) {
		return evClass[id]
	}
	return clIgnore
}

// Scratch-buffer pools. A steady-state consumer (the daemon's
// per-stream analyses, benchmark repetitions) reuses the previous run's
// buffers instead of re-allocating — and re-zeroing — tens of megabytes
// per run; see getSlice/putSlice.
var (
	cevPool   sync.Pool // *[]cev: per-chunk per-CPU segments
	exitPool  sync.Pool // *[]int32: exit-CPU lists, per chunk and stitched
	spanPool  sync.Pool // *[]spanRec: per-CPU walker span lists
	arenaPool sync.Pool // *[]trace.Event: decode arenas
	schedPool sync.Pool // *[]schedRec: control-stream pieces and stitched streams
	ispanPool sync.Pool // *[]ispanKey: per-CPU noise-span indexes
)

// getSlice returns an empty slice with at least the requested capacity,
// reusing a pooled buffer when one is big enough.
func getSlice[T any](p *sync.Pool, capacity int) []T {
	if v := p.Get(); v != nil {
		if s := *(v.(*[]T)); cap(s) >= capacity {
			return s[:0]
		}
	}
	return make([]T, 0, capacity)
}

// putSlice recycles a buffer for a later getSlice. The caller must be
// the last referent — nothing reachable from a returned Report may
// alias it.
func putSlice[T any](p *sync.Pool, s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:0]
	p.Put(&s)
}

// parallelFor runs fn(i) for every i in [0,n) on up to workers
// goroutines, each claiming the next unclaimed index. Workers stop
// claiming once ctx is cancelled; every worker is joined before it
// returns.
func parallelFor(ctx context.Context, n, workers int, fn func(i int)) {
	workers = max(min(workers, n), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// spanRec is one reconstructed kernel-activity span before scheduler
// attribution (owner pid and noise classification are replay-phase
// concerns). 32 bytes: the replay streams millions of these.
type spanRec struct {
	start    int64
	wall     int64
	own      int64
	closeOrd int32 // ordinal of the closing exit within this CPU's exits
	key      uint16
	topLevel bool // span closed with an empty stack below it
}

// cpuWalker reconstructs the kernel-activity spans of one CPU's
// entry/exit sub-stream. It is the parallel counterpart of the stack
// handling inside Analyze and must mirror it exactly.
type cpuWalker struct {
	attributeNesting bool
	stack            []openSpan
	spans            []spanRec
	perKey           [NumKeys]int // finished spans per key, for preallocation
	exits            int          // exit tracepoints seen, including unmatched ones
	dropped          int
}

// step feeds one routed sub-stream record through the walker.
//
//noisevet:hotpath
func (w *cpuWalker) step(e cev) {
	if e.key != cevExit {
		w.stack = append(w.stack, openSpan{
			key:    Key(e.key),
			start:  e.ts,
			exitID: trace.ID(e.id),
		})
		return
	}
	ord := w.exits
	w.exits++
	if len(w.stack) == 0 {
		w.dropped++ // span began before tracing started
		return
	}
	top := w.stack[len(w.stack)-1]
	if top.exitID != trace.ID(e.id) {
		// Corrupt nesting; drop the whole stack for this CPU.
		w.dropped += len(w.stack)
		w.stack = w.stack[:0]
		return
	}
	w.stack = w.stack[:len(w.stack)-1]
	wall := e.ts - top.start
	own := wall
	if w.attributeNesting {
		own = wall - top.childWall
		if own < 0 {
			own = 0
		}
	}
	if len(w.stack) > 0 {
		w.stack[len(w.stack)-1].childWall += wall
	}
	w.perKey[top.key]++
	w.spans = append(w.spans, spanRec{
		closeOrd: int32(ord), key: uint16(top.key), start: top.start,
		wall: wall, own: own, topLevel: len(w.stack) == 0,
	})
}

// schedRec is one scheduler event in the control stream, positioned in
// the global order by the number of span exits that precede it.
type schedRec struct {
	ts          int64
	a1, a2, a3  int64
	exitsBefore int32 // exit events preceding this record globally
	cpu         int32
	kind        uint8 // clSwitch, clMigrate or clProcExit
}

// ctlStream is the global-order projection of the event stream that the
// replay consumes: exits are compressed to just their CPU (4 bytes each
// — they carry no other replay-relevant state, the walkers hold the
// span data), while the rare scheduler events keep their arguments and
// record their interleaving position.
type ctlStream struct {
	exitCPU  []int32
	sched    []schedRec
	switches int // sched-switch count: caps the preemption spans replay can emit
}

// inWindow reports whether a timestamp falls inside the analysis window
// (mirrors the filter at the top of Analyze's event loop).
func (o *Options) inWindow(ts int64) bool {
	if o.FromNS == 0 && o.ToNS == 0 {
		return true
	}
	return ts >= o.FromNS && !(o.ToNS > 0 && ts > o.ToNS)
}

// chunk is one routed stretch of the event stream: per-CPU segments
// for the walkers plus the chunk-local control-stream pieces, whose
// exitsBefore positions count this chunk's exits only until stitch
// offsets them.
type chunk struct {
	perCPU          [][]cev
	exitCPU         []int32
	sched           []schedRec
	switches        int
	dropped         int   // in-window records naming a CPU out of range
	events          int   // records routed, filtered or not
	firstTS, lastTS int64 // timestamps of the first and last routed record
}

// newChunk takes a chunk's buffers from the pools, sized for nrec
// records: every CPU segment as if all records were entries/exits
// spread uniformly (a slight overshoot that makes append growth the
// rare case), the control stream for realistic traces' ~10% scheduler
// records.
func newChunk(ncpu, nrec int) *chunk {
	c := &chunk{perCPU: make([][]cev, ncpu)}
	for i := range c.perCPU {
		c.perCPU[i] = getSlice[cev](&cevPool, nrec/ncpu+64)
	}
	c.exitCPU = getSlice[int32](&exitPool, nrec/2+64)
	c.sched = getSlice[schedRec](&schedPool, nrec/8+64)
	return c
}

// route appends one batch of events to the chunk. It is the pipeline's
// only event classification: Analyze keeps its own switch as the
// independent oracle. Records outside the analysis window are skipped
// (the check is hoisted away when no window is set); in-window records
// naming a CPU out of range are counted as dropped, mirroring Analyze.
//
//noisevet:hotpath
func (c *chunk) route(evs []trace.Event, opts *Options) {
	if len(evs) == 0 {
		return
	}
	if c.events == 0 {
		c.firstTS = evs[0].TS
	}
	c.lastTS = evs[len(evs)-1].TS
	c.events += len(evs)
	checkWin := opts.FromNS != 0 || opts.ToNS != 0
	ncpu := uint32(len(c.perCPU))
	for i := range evs {
		ev := &evs[i]
		if checkWin && !opts.inWindow(ev.TS) {
			continue
		}
		cpu := ev.CPU
		if uint32(cpu) >= ncpu {
			c.dropped++
			continue
		}
		switch cl := classOf(ev.ID); cl {
		case clEntry:
			c.perCPU[cpu] = append(c.perCPU[cpu], cev{
				ts: ev.TS, id: uint16(ev.ID.ExitFor()), key: uint16(keyOfSpan(ev.ID, ev.Arg1)),
			})
		case clExit:
			c.perCPU[cpu] = append(c.perCPU[cpu], cev{ts: ev.TS, id: uint16(ev.ID), key: cevExit})
			c.exitCPU = append(c.exitCPU, cpu)
		case clSwitch, clMigrate, clProcExit:
			if cl == clSwitch {
				c.switches++
			}
			c.sched = append(c.sched, schedRec{
				kind: cl, cpu: cpu, ts: ev.TS,
				a1: ev.Arg1, a2: ev.Arg2, a3: ev.Arg3,
				exitsBefore: int32(len(c.exitCPU)),
			})
		}
	}
}

// handoff is the ordered hand-off between a source's producers and the
// walkers. It accepts any number of chunks, published in any order
// (concurrent producers finish their ranges out of order); the walkers
// consume them strictly in stream order, blocking until the next one
// is published. Once closed, an unpublished chunk — the end of the
// stream, or one skipped on cancellation or error — reads as nil, so a
// walker can never hang.
type handoff struct {
	mu     sync.Mutex
	ready  sync.Cond
	chunks []*chunk
	closed bool
}

// publish makes chunk i available to the walkers.
func (h *handoff) publish(i int, c *chunk) {
	h.mu.Lock()
	for len(h.chunks) <= i {
		h.chunks = append(h.chunks, nil)
	}
	h.chunks[i] = c
	h.mu.Unlock()
	h.ready.Broadcast()
}

// close ends publication; the producers must have returned.
func (h *handoff) close() {
	h.mu.Lock()
	h.closed = true
	h.mu.Unlock()
	h.ready.Broadcast()
}

// wait blocks until chunk i is published and returns it, or returns nil
// once the hand-off is closed without it.
func (h *handoff) wait(i int) *chunk {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if i < len(h.chunks) && h.chunks[i] != nil {
			return h.chunks[i]
		}
		if h.closed {
			return nil
		}
		h.ready.Wait()
	}
}

// pipeline is the state of one sharded analysis run.
type pipeline struct {
	opts   Options
	ncpu   int
	shards int
	// chunks is the expected chunk count (1 when open-ended), sizing the
	// walkers' span lists. A producer sets it before its first publish,
	// which orders the write before every walker's read.
	chunks int
	prog   progress
	hand   handoff
}

// routeBatch routes one decoded batch into c, after a cancellation
// check, and counts it as consumed.
func (p *pipeline) routeBatch(ctx context.Context, c *chunk, evs []trace.Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c.route(evs, &p.opts)
	p.prog.events.Add(uint64(len(evs)))
	return nil
}

// rawBatch is how many events one decode call materialises into a
// worker's arena: big enough to amortise the call and hoist the
// per-event branches, small enough to stay L1-resident (20 KB).
const rawBatch = 512

// fillRanges is the producer of the re-readable sources: records [0,n)
// are cut into one range per shard (at least 4096 records each), and up
// to `shards` workers scan and route the ranges concurrently,
// publishing every chunk as soon as it is routed. It returns the first
// scan error in stream order.
func (p *pipeline) fillRanges(ctx context.Context, n uint64, scan func(ctx context.Context, p *pipeline, c *chunk, lo, hi uint64) error) error {
	nchunk := max(min(p.shards, int(n/4096)+1), 1)
	p.chunks = nchunk
	errs := make([]error, nchunk)
	parallelFor(ctx, nchunk, p.shards, func(ci int) {
		lo, hi := uint64(ci)*n/uint64(nchunk), uint64(ci+1)*n/uint64(nchunk)
		c := newChunk(p.ncpu, int(hi-lo))
		errs[ci] = scan(ctx, p, c, lo, hi)
		if errs[ci] == nil {
			p.hand.publish(ci, c)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// walk starts the walker pool, joined through wg: worker w owns CPUs
// w, w+workers, … and steps their segments of every published chunk in
// stream order — each CPU's global event order — returning each
// segment to its pool once walked, so no worker waits for the end of
// the stream and no segment outlives its walk. Workers check ctx at
// every chunk and every cancelStride records; a worker that saw the
// whole stream counts its CPUs into prog.cpus.
//
//noisevet:hotpath
func (p *pipeline) walk(ctx context.Context, walkers []cpuWalker, wg *sync.WaitGroup) {
	workers := max(min(p.shards, p.ncpu), 1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ci := 0; ; ci++ {
				c := p.hand.wait(ci)
				if ctx.Err() != nil {
					return
				}
				if c == nil {
					break
				}
				for cpu := w; cpu < p.ncpu; cpu += workers {
					wk, seg := &walkers[cpu], c.perCPU[cpu]
					if wk.spans == nil {
						// Roughly half a segment is exits, each closing at
						// most one span.
						wk.spans = getSlice[spanRec](&spanPool, len(seg)*p.chunks/2+16)
					}
					for base := 0; base < len(seg); base += cancelStride {
						if ctx.Err() != nil {
							return
						}
						for _, e := range seg[base:min(base+cancelStride, len(seg))] {
							wk.step(e)
						}
					}
					putSlice(&cevPool, seg)
					c.perCPU[cpu] = nil
				}
			}
			p.prog.cpus.Add(int64((p.ncpu - w + workers - 1) / workers))
		}(w)
	}
}

// source is where a pipeline run's events come from — the one thing
// the three entry points do differently.
type source interface {
	// shape returns the CPU count and the number of event records left
	// to read.
	shape() (cpus int, events uint64)
	// fill routes records [0,n) into chunks published on p.hand.
	fill(ctx context.Context, p *pipeline, n uint64) error
	// appPIDs reads the application pid set from the source's process
	// table; it is called after fill.
	appPIDs() (map[int64]bool, error)
}

// rereader is a source that can be read again from the start, so a run
// past maxRouted can fall back to the sequential analyzer.
type rereader interface {
	sequential(ctx context.Context, opts Options, shards int) (*Report, error)
}

// runPipeline is the one sharded analysis behind the entry points: the
// shared prologue (event cap, overflow guard, report header), the
// source's producers overlapped with the walker pool, and the shared
// tail — stitch, prealloc, replay, finish.
//
// With summary set (SummarizeStream) the tail keeps only what a
// WindowSummary needs: no prealloc, the replay accumulates without
// keeping Spans or Durations, and the interruption build stops at the
// count — left in InterruptionsTotal, with InterruptionsSampled set
// when it exceeds the budget's cap. The replay order is the same, so
// the aggregates are bit-identical to the full report's.
func runPipeline(ctx context.Context, src source, opts Options, shards int, summary bool) (*Report, error) {
	ncpu, total := src.shape()
	p := &pipeline{opts: opts, ncpu: ncpu, shards: shards, chunks: 1}
	if p.shards <= 0 {
		p.shards = runtime.GOMAXPROCS(0)
	}
	p.hand.ready.L = &p.hand.mu
	r := &Report{CPUs: ncpu}
	for k := Key(0); k < NumKeys; k++ {
		r.PerKey[k] = &KeyStats{Key: k}
	}
	if ctx.Err() != nil {
		return r.markCancelled(&p.prog), cancelErr(ctx)
	}
	n := min(total, opts.Budget.eventCap())
	if n > maxRouted {
		if rr, ok := src.(rereader); ok {
			rep, err := rr.sequential(ctx, opts, p.shards)
			if err != nil && ctx.Err() != nil {
				return r.markCancelled(&p.prog), cancelErr(ctx)
			}
			return rep, err
		}
		n = maxRouted
	}
	r.Incomplete = n < total

	walkers := make([]cpuWalker, ncpu)
	for i := range walkers {
		walkers[i].attributeNesting = opts.AttributeNesting
	}
	var wg sync.WaitGroup
	p.walk(ctx, walkers, &wg)
	err := src.fill(ctx, p, n)
	p.hand.close()
	wg.Wait()
	if ctx.Err() != nil {
		return r.markCancelled(&p.prog), cancelErr(ctx)
	}
	if err != nil {
		return nil, err
	}
	appPIDs := opts.AppPIDs
	if appPIDs == nil {
		if appPIDs, err = src.appPIDs(); err != nil {
			return nil, err
		}
	}

	ctl := r.stitch(p.hand.chunks)
	if opts.ToNS > opts.FromNS && (opts.FromNS != 0 || opts.ToNS != 0) {
		r.Seconds = float64(opts.ToNS-opts.FromNS) / 1e9
	}
	if !summary {
		r.prealloc(walkers, ctl.switches, opts.KeepDurations)
	}
	windows, noiseIdx := r.replay(ctx, &ctl, walkers, &opts, appMatcher(appPIDs), summary)
	if ctx.Err() == nil {
		err = r.finish(ctx, walkers, windows, noiseIdx, opts, p.shards, summary)
	}
	// The Report copies everything it keeps; nothing aliases the spans,
	// the control stream or the noise index.
	putSlice(&exitPool, ctl.exitCPU)
	putSlice(&schedPool, ctl.sched)
	for _, idx := range noiseIdx {
		putSlice(&ispanPool, idx)
	}
	if ctx.Err() != nil || err != nil {
		return r.markCancelled(&p.prog), cancelErr(ctx)
	}
	r.EventsConsumed = p.prog.events.Load()
	for i := range walkers {
		putSlice(&spanPool, walkers[i].spans)
	}
	return r, nil
}

// stitch concatenates the chunks' control-stream pieces into the global
// control stream, offsetting each scheduler record's exitsBefore by the
// exits of the chunks before it, and returns the pieces to their pools.
// It also folds the chunks' drop counts into r, and their first and
// last timestamps into r.Seconds — the span of the consumed records,
// as Analyze reports it. The stream's own buffers come from the same
// pools; the caller returns them once the replay and finish are done.
func (r *Report) stitch(chunks []*chunk) ctlStream {
	var ctl ctlStream
	var first, last *chunk
	exitTotal, schedTotal := 0, 0
	for _, c := range chunks {
		exitTotal += len(c.exitCPU)
		schedTotal += len(c.sched)
		ctl.switches += c.switches
		r.Dropped += c.dropped
		if c.events > 0 {
			if first == nil {
				first = c
			}
			last = c
		}
	}
	if first != nil {
		r.Seconds = float64(last.lastTS-first.firstTS) / 1e9
	}
	ctl.exitCPU = getSlice[int32](&exitPool, exitTotal)
	ctl.sched = getSlice[schedRec](&schedPool, schedTotal)
	for _, c := range chunks {
		base := int32(len(ctl.exitCPU))
		ctl.exitCPU = append(ctl.exitCPU, c.exitCPU...)
		for _, sr := range c.sched {
			sr.exitsBefore += base
			ctl.sched = append(ctl.sched, sr)
		}
		putSlice(&exitPool, c.exitCPU)
		putSlice(&schedPool, c.sched)
	}
	return ctl
}

// prealloc right-sizes the report's append targets before the replay:
// the walkers know exactly how many spans of each key they produced, and
// the partition bounds the preemption spans by the switch count, so the
// replay's record calls never re-grow a slice. (The sequential analyzer
// cannot know these counts without a second pass — this is where the
// sharded pipeline recovers the partition cost.) Slices stay nil when
// nothing will be appended so the report compares equal to the
// sequential one.
func (r *Report) prealloc(walkers []cpuWalker, switches int, keep bool) {
	total := 0
	var perKey [NumKeys]int
	for i := range walkers {
		total += len(walkers[i].spans)
		for k, n := range walkers[i].perKey {
			perKey[k] += n
		}
	}
	if total > 0 {
		r.Spans = make([]Span, 0, total+switches)
	}
	if keep {
		for k, n := range perKey {
			if n > 0 && Key(k) != KeyPreemption {
				r.PerKey[k].Durations = make([]int64, 0, n)
			}
		}
	}
}

// ispanKey is one noise span's record in the per-CPU interruption
// index: the sort-comparator fields plus everything the gap merge
// consumes (own, key). The replay sink writes these as it emits noise
// spans, so the whole interruption build — sort, count, fill — runs
// over these compact contiguous records without ever loading the
// multi-megabyte Report.Spans array again (a cache miss per span,
// measured as the dominant cost of the old index-only scheme).
type ispanKey struct {
	start, end int64
	own        int64 // the span's own-time contribution (Span.Own)
	key        Key   // the span's classification (Span.Key)
	idx        int32 // record index in Report.Spans: the stable tie-break
}

// keyCmp is the interruption sort order on keys: start ascending, then
// end descending — exactly interruptionsForCPU's comparator. Ties (two
// spans with identical start and end, common at same-timestamp
// boundaries) compare equal here; use keyCmpTotal where a deterministic
// order is required.
func keyCmp(a, b ispanKey) int {
	if a.start != b.start {
		if a.start < b.start {
			return -1
		}
		return 1
	}
	if a.end == b.end {
		return 0
	}
	if a.end > b.end {
		return -1
	}
	return 1
}

// keyCmpTotal extends keyCmp into a total order by breaking ties on the
// span's record index, ascending. Keys are built in record order, so
// sorting by keyCmpTotal from ANY permutation yields exactly the order
// sort.SliceStable with keyCmp would give the original sequence — the
// tie-handling contract the sequential interruptionsForCPU provides.
func keyCmpTotal(a, b ispanKey) int {
	if c := keyCmp(a, b); c != 0 {
		return c
	}
	if a.idx != b.idx {
		if a.idx < b.idx {
			return -1
		}
		return 1
	}
	return 0
}

// sortKeysNearSorted sorts keys in near-linear time, exploiting that
// the replay emits noise spans in per-CPU exit order: ascending except
// where a parent span closes after its children, so out-of-place
// elements are a handful per CPU. Those are split off, sorted, and
// rear-merged into the ascending remainder.
//
// When every key is distinct the sorted order is unique, so this equals
// what any correct sort would produce. Duplicate keys make the order of
// the tied elements algorithm-dependent; the function detects them and
// reports false, and the caller must fall back to the total-order sort
// (keyCmpTotal), whose tie-break reproduces the stable order.
func sortKeysNearSorted(keys []ispanKey) bool {
	w := 0
	var outliers []ispanKey
	for _, k := range keys {
		if w > 0 && keyCmp(k, keys[w-1]) < 0 {
			outliers = append(outliers, k)
			continue
		}
		keys[w] = k
		w++
	}
	if len(outliers) > 0 {
		slices.SortFunc(outliers, keyCmpTotal)
		// Rear merge: fill keys from the back; t never catches up to i.
		i, t := w-1, len(keys)-1
		for j := len(outliers) - 1; j >= 0; t-- {
			if i >= 0 && keyCmp(keys[i], outliers[j]) > 0 {
				keys[t] = keys[i]
				i--
			} else {
				keys[t] = outliers[j]
				j--
			}
		}
	}
	for i := 1; i < len(keys); i++ {
		if keyCmp(keys[i-1], keys[i]) == 0 {
			return false
		}
	}
	return true
}

// sortInterruptionKeys sorts one CPU's interruption keys in place:
// same comparator and provably the same order as interruptionsForCPU's
// stable sort. The near-sorted fast path is exact for distinct keys
// (the sorted order is unique); when it detects ties it reports failure
// and the total-order sort lands them by ascending record index — which
// IS the stable order, because the replay sink wrote the keys in record
// order. Sorting these compact records applies the exact permutation
// sorting the spans themselves would.
func sortInterruptionKeys(keys []ispanKey) {
	if !sortKeysNearSorted(keys) {
		// keyCmpTotal is a total order: re-sorting the permuted keys
		// still yields the unique sorted sequence, no rebuild needed.
		slices.SortFunc(keys, keyCmpTotal)
	}
}

// countInterruptions dry-runs the gap merge over sorted keys and
// returns how many interruptions it will produce.
//
//noisevet:hotpath
func countInterruptions(keys []ispanKey, gap int64) int {
	n, end := 0, int64(0)
	for _, k := range keys {
		if n == 0 || k.start-end > gap {
			n++
			end = k.end
		} else if k.end > end {
			end = k.end
		}
	}
	return n
}

// fillInterruptions runs the gap merge over one CPU's sorted keys,
// writing into caller-provided storage: out must have room for exactly
// countInterruptions results and comps for len(keys) components. Every
// Component slice is carved from comps with its capacity pinned, so the
// result compares equal to the sequential builder's append-grown slices
// (reflect.DeepEqual ignores capacity).
func fillInterruptions(cpu int32, keys []ispanKey, gap int64, out []Interruption, comps []Component) {
	ci, curStart, n := 0, 0, 0
	var cur Interruption
	for _, k := range keys {
		if ci > 0 && k.start-cur.End <= gap {
			comps[ci] = Component{Key: k.key, Start: k.start, Own: k.own}
			ci++
			cur.Total += k.own
			if k.end > cur.End {
				cur.End = k.end
			}
			continue
		}
		if ci > 0 {
			cur.Components = comps[curStart:ci:ci]
			out[n] = cur
			n++
		}
		curStart = ci
		comps[ci] = Component{Key: k.key, Start: k.start, Own: k.own}
		ci++
		cur = Interruption{CPU: cpu, Start: k.start, End: k.end, Total: k.own}
	}
	cur.Components = comps[curStart:ci:ci]
	out[n] = cur
}

// countInterruptionsParallel is the first phase of the interruption
// build, fanned out over a worker pool: every CPU's noise index is
// sorted in place and its interruption count dry-run. It returns the
// CPUs with noise, ascending, and their counts. Workers check ctx at
// every CPU claim; on cancellation the pool is still joined and the
// context's error is returned.
func countInterruptionsParallel(ctx context.Context, noiseIdx [][]ispanKey, gap int64, workers int) ([]int32, []int, error) {
	var cpuIDs []int32
	for c := range noiseIdx {
		if len(noiseIdx[c]) > 0 {
			cpuIDs = append(cpuIDs, int32(c))
		}
	}
	if len(cpuIDs) == 0 {
		return nil, nil, ctx.Err()
	}
	counts := make([]int, len(cpuIDs))
	parallelFor(ctx, len(cpuIDs), workers, func(i int) {
		// The index was written in record order; sort it in place
		// (nothing else reads it after this phase).
		keys := noiseIdx[cpuIDs[i]]
		sortInterruptionKeys(keys)
		counts[i] = countInterruptions(keys, gap)
	})
	return cpuIDs, counts, ctx.Err()
}

// buildInterruptionsParallel is buildInterruptions with the per-CPU
// grouping fanned out over a worker pool, in two phases: first
// countInterruptionsParallel sorts and counts, then the full
// interruption list and one global component arena are allocated once
// and the workers fill disjoint subranges in place. CPUs are
// independent and their ranges concatenate in ascending CPU order, so
// the output is identical to the sequential builder's: each CPU's noise
// spans are gathered from r.Spans in record order, exactly the sequence
// noiseByCPU produces.
func (r *Report) buildInterruptionsParallel(ctx context.Context, noiseIdx [][]ispanKey, gap int64, workers int) error {
	cpuIDs, counts, err := countInterruptionsParallel(ctx, noiseIdx, gap, workers)
	if err != nil || len(cpuIDs) == 0 {
		return err
	}

	// Exclusive prefix sums: each CPU's slot in the interruption list
	// and the component arena.
	intOffs := make([]int, len(cpuIDs)+1)
	keyOffs := make([]int, len(cpuIDs)+1)
	for i, c := range cpuIDs {
		intOffs[i+1] = intOffs[i] + counts[i]
		keyOffs[i+1] = keyOffs[i] + len(noiseIdx[c])
	}
	r.Interruptions = make([]Interruption, intOffs[len(cpuIDs)])
	comps := make([]Component, keyOffs[len(cpuIDs)])
	parallelFor(ctx, len(cpuIDs), workers, func(i int) {
		fillInterruptions(cpuIDs[i], noiseIdx[cpuIDs[i]], gap,
			r.Interruptions[intOffs[i]:intOffs[i+1]],
			comps[keyOffs[i]:keyOffs[i+1]])
	})
	return ctx.Err()
}

// appMatcher builds the application-pid predicate from an explicit pid
// set (nil = every non-zero pid is an application).
func appMatcher(appPIDs map[int64]bool) func(int64) bool {
	return func(pid int64) bool {
		if pid == 0 {
			return false
		}
		if appPIDs == nil {
			return true
		}
		return appPIDs[pid]
	}
}

// finish shares the tail of the parallel paths: boundary-drop
// accounting, interruption grouping, and the interruption budget. With
// summary set it only counts the interruptions (see runPipeline). A
// non-nil error is the context's own (the caller wraps it).
func (r *Report) finish(ctx context.Context, walkers []cpuWalker, windows map[int64]*window, noiseIdx [][]ispanKey, opts Options, shards int, summary bool) error {
	for i := range walkers {
		r.Dropped += walkers[i].dropped + len(walkers[i].stack)
	}
	r.Dropped += len(windows)
	if !summary {
		if err := r.buildInterruptionsParallel(ctx, noiseIdx, opts.GapNS, shards); err != nil {
			return err
		}
		r.applyInterruptionBudget(opts.Budget)
		return nil
	}
	_, counts, err := countInterruptionsParallel(ctx, noiseIdx, opts.GapNS, shards)
	for _, n := range counts {
		r.InterruptionsTotal += n
	}
	capN := opts.Budget.MaxInterruptions
	r.InterruptionsSampled = capN > 0 && r.InterruptionsTotal > capN
	return err
}

// AnalyzeParallel runs the full noise analysis sharded across per-CPU
// event streams using up to `shards` workers (≤ 0 means GOMAXPROCS).
// The report it produces is bit-identical to Analyze's on the same
// trace and options — budgets included: per-CPU span reconstruction is
// exact (nesting never crosses a CPU) and the final accumulation
// replays in sequential order (see replay.go).
//
// Cancelling ctx stops the run at the next batch boundary with no
// leaked goroutines; the partial Report (marked Incomplete, with
// EventsConsumed/CPUsFinished) is returned together with an error
// wrapping both ErrCancelled and ctx.Err().
func AnalyzeParallel(ctx context.Context, tr *trace.Trace, opts Options, shards int) (*Report, error) {
	return runPipeline(ctx, memSource{tr}, opts, shards, false)
}

// memSource feeds the pipeline from an in-memory trace.
type memSource struct{ tr *trace.Trace }

// shape returns the trace's CPU and event counts.
func (s memSource) shape() (int, uint64) { return s.tr.CPUs, uint64(len(s.tr.Events)) }

// fill routes the events' ranges straight from the slice.
func (s memSource) fill(ctx context.Context, p *pipeline, n uint64) error {
	return p.fillRanges(ctx, n, s.scan)
}

// scan routes events [lo,hi) into c, cancelStride records at a time.
//
//noisevet:hotpath
func (s memSource) scan(ctx context.Context, p *pipeline, c *chunk, lo, hi uint64) error {
	for ; lo < hi; lo += cancelStride {
		if err := p.routeBatch(ctx, c, s.tr.Events[lo:min(lo+cancelStride, hi)]); err != nil {
			return err
		}
	}
	return nil
}

// appPIDs returns the trace's application pids.
func (s memSource) appPIDs() (map[int64]bool, error) { return s.tr.AppPIDs(), nil }

// sequential falls back to Analyze.
func (s memSource) sequential(_ context.Context, opts Options, _ int) (*Report, error) {
	return Analyze(s.tr, opts), nil
}

// AnalyzeRaw runs the sharded analysis directly over the undecoded
// bytes of a fixed-format trace in a random-access source (a file or a
// bytes.Reader), using up to `shards` workers (≤ 0 means GOMAXPROCS).
// It never materialises the full []Event: each worker bulk-decodes its
// record range through a reused arena into compact per-CPU segments,
// which the walkers consume while the scan goes on. The report is
// bit-identical to Analyze(trace.Read(...)) on the same bytes.
//
// This is the fastest path from trace bytes to a Report and the one the
// noisebench pipeline benchmark exercises.
//
// Cancelling ctx stops the run at the next batch boundary with no
// leaked goroutines; the partial Report (marked Incomplete, with
// EventsConsumed/CPUsFinished) is returned together with an error
// wrapping both ErrCancelled and ctx.Err(). An event/byte budget
// truncates the scan to the trace's prefix without reading the rest.
func AnalyzeRaw(ctx context.Context, ra io.ReaderAt, size int64, opts Options, shards int) (*Report, error) {
	rt, err := trace.OpenRaw(ra, size)
	if err != nil {
		return nil, err
	}
	return runPipeline(ctx, rawSource{rt, ra, size}, opts, shards, false)
}

// rawSource feeds the pipeline from a fixed-format trace's raw bytes.
type rawSource struct {
	rt   *trace.RawTrace
	ra   io.ReaderAt
	size int64
}

// shape returns the trace header's CPU and event counts.
func (s rawSource) shape() (int, uint64) { return s.rt.CPUs(), s.rt.EventCount() }

// fill scans and routes the record ranges concurrently.
func (s rawSource) fill(ctx context.Context, p *pipeline, n uint64) error {
	return p.fillRanges(ctx, n, s.scan)
}

// scan routes records [lo,hi) into c: DecodeBatch decodes rawBatch
// events at a time into a pooled arena.
//
//noisevet:hotpath
func (s rawSource) scan(ctx context.Context, p *pipeline, c *chunk, lo, hi uint64) error {
	arena := getSlice[trace.Event](&arenaPool, rawBatch)[:rawBatch]
	defer putSlice(&arenaPool, arena)
	return s.rt.Scan(lo, hi, func(_ uint64, b []byte) error {
		for len(b) > 0 {
			n := trace.DecodeBatch(b, arena)
			if n == 0 {
				return nil
			}
			b = b[n*trace.EventSize:]
			if err := p.routeBatch(ctx, c, arena[:n]); err != nil {
				return err
			}
		}
		return nil
	})
}

// appPIDs returns the application pids of the trace's process table.
func (s rawSource) appPIDs() (map[int64]bool, error) {
	procs, err := s.rt.Procs()
	if err != nil {
		return nil, err
	}
	return (&trace.Trace{Procs: procs}).AppPIDs(), nil
}

// sequential decodes the whole trace and falls back to Analyze.
func (s rawSource) sequential(ctx context.Context, opts Options, shards int) (*Report, error) {
	tr, err := trace.ReadParallel(ctx, s.ra, s.size, shards)
	if err != nil {
		return nil, err
	}
	return Analyze(tr, opts), nil
}

// AnalyzeStream runs the sharded analysis over a streaming decoder
// without materialising the whole event section: events are decoded in
// batches and routed into fixed-size chunks that the walkers consume
// as each one fills (decode overlaps with span reconstruction), and
// only the control stream and the reconstructed spans are retained for
// the replay. The report is bit-identical to Analyze/AnalyzeParallel on
// the same trace.
//
// If opts.AppPIDs is nil the application set is taken from the trace's
// process table, which the decoder reads after the last event.
//
// Cancelling ctx stops the run at the next decode batch with no leaked
// goroutines (the walker pool is always joined); the partial Report
// (marked Incomplete, with EventsConsumed) is returned together with an
// error wrapping both ErrCancelled and ctx.Err(). An event/byte budget
// stops decoding at the cap and degrades to a prefix-complete report.
func AnalyzeStream(ctx context.Context, d *trace.Decoder, opts Options, shards int) (*Report, error) {
	return runPipeline(ctx, streamSource{d}, opts, shards, false)
}

// SummarizeStream is AnalyzeStream for a caller that keeps only the
// aggregates: it returns the WindowSummary that AddReport would fold
// from AnalyzeStream's report, bit for bit, without building any Span,
// retained duration or Interruption. The interruption count stays
// exact, and Sampled is set when it exceeds Budget.MaxInterruptions,
// as the budget would have sampled the full report's detail.
//
// Cancelling ctx returns the partial summary (Incomplete = 1, with the
// EventsConsumed so far) together with an error wrapping both
// ErrCancelled and ctx.Err(); any other failure returns a zero summary
// with the error.
func SummarizeStream(ctx context.Context, d *trace.Decoder, opts Options, shards int) (WindowSummary, error) {
	var ws WindowSummary
	r, err := runPipeline(ctx, streamSource{d}, opts, shards, true)
	if r != nil {
		ws.add(r, r.InterruptionsTotal)
	}
	return ws, err
}

// streamSource feeds the pipeline from a streaming decoder. It cannot
// be re-read, so past maxRouted it stops like an event budget.
type streamSource struct{ d *trace.Decoder }

// streamChunk is how many records the stream path routes into one chunk
// before publishing it to the walkers.
const streamChunk = 1 << 15

// shape returns the header's CPU count and the events not yet decoded.
func (s streamSource) shape() (int, uint64) { return s.d.CPUs(), s.d.Remaining() }

// fill decodes the first n events batch by batch through a pooled
// arena, publishing a chunk every streamChunk records. The decoder
// yields exactly the header's event count or fails, so every error
// here is a read error.
//
//noisevet:hotpath
func (s streamSource) fill(ctx context.Context, p *pipeline, n uint64) error {
	arena := getSlice[trace.Event](&arenaPool, rawBatch)[:rawBatch]
	defer putSlice(&arenaPool, arena)
	var c *chunk
	ci := 0
	for got := uint64(0); got < n; {
		if c == nil {
			c = newChunk(p.ncpu, int(min(n-got, streamChunk)))
		}
		k, err := s.d.Next(arena[:min(n-got, rawBatch)])
		if rerr := p.routeBatch(ctx, c, arena[:k]); rerr != nil {
			return rerr
		}
		if err != nil {
			return err
		}
		got += uint64(k)
		if c.events >= streamChunk {
			p.hand.publish(ci, c)
			ci, c = ci+1, nil
		}
	}
	if c != nil {
		p.hand.publish(ci, c)
	}
	return nil
}

// appPIDs returns the application pids of the process table after the
// events. A budget cap leaves undecoded events ahead of the table; they
// are skipped unparsed so classification still works.
func (s streamSource) appPIDs() (map[int64]bool, error) {
	if err := s.d.Skip(); err != nil {
		return nil, err
	}
	procs, err := s.d.Procs()
	if err != nil {
		return nil, err
	}
	return (&trace.Trace{Procs: procs}).AppPIDs(), nil
}
