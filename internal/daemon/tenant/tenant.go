// Package tenant isolates one client of the noised daemon.
//
// A Session owns everything the daemon keeps for a tenant: the analysis
// options, a lifetime ingest budget, a rolling noise window, and the
// stream counters the sinks export. Ingest runs one summary-only
// streaming analysis (noise.SummarizeStream) under the remaining
// lifetime budget, so a tenant that exhausts its cap degrades and is
// then evicted without disturbing any other tenant — isolation is
// per-Session state plus a per-Session context, never shared analysis
// structures.
//
// Determinism contract: with no budget pressure and no overload
// sampling, the summary a Session folds into its window is the one
// WindowSummary.AddReport folds from the batch analyzer's Report for
// the same events, so a single-stream window is bit-identical to batch
// noise.Analyze (the property internal/noise/window.go locks down).
package tenant

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"osnoise/internal/noise"
	"osnoise/internal/stats"
	"osnoise/internal/trace"
)

// ErrEvicted is returned by Ingest once the tenant has exhausted its
// lifetime budget; matched with errors.Is.
var ErrEvicted = errors.New("tenant: lifetime budget exhausted")

// Config sizes a tenant session.
type Config struct {
	// ID names the tenant; it becomes the sink tag / metric label.
	ID string
	// Options is the per-stream analysis configuration. Its Budget
	// field bounds a single stream; the lifetime cap below is separate.
	Options noise.Options
	// Budget caps the tenant's lifetime event intake (MaxEvents and
	// MaxBytes fold into one record count; a stream with more than
	// MaxInterruptions interruptions counts as Sampled in the window).
	// The zero value means unlimited.
	Budget noise.Budget
	// Shards is the parallelism handed to noise.SummarizeStream.
	Shards int
	// WindowBuckets is the rolling window width in flush intervals.
	WindowBuckets int
}

// lifetimeCap folds the event and byte caps of a lifetime budget into
// one record count, mirroring the analyzer's own budget folding.
func lifetimeCap(b noise.Budget) uint64 {
	const unlimited = ^uint64(0)
	limit := unlimited
	if b.MaxEvents > 0 {
		limit = b.MaxEvents
	}
	if b.MaxBytes > 0 {
		if n := b.MaxBytes / trace.EventSize; n < limit {
			limit = n
		}
	}
	return limit
}

// Session is one tenant's isolated analysis state. All methods are safe
// for concurrent use; two streams for the same tenant serialise on the
// ingest lock (per-tenant ordering is part of the window determinism
// contract), streams for different tenants never share state.
type Session struct {
	id     string
	opts   noise.Options
	budget noise.Budget
	cap    uint64
	shards int
	ctx    context.Context
	cancel context.CancelFunc

	// ingestMu serialises stream analyses for this tenant so window
	// bucket order matches arrival order. It is taken before mu and
	// never the other way around.
	//noisevet:lockrank daemon 2
	ingestMu sync.Mutex

	// mu guards the rolling window and the counters below; held only
	// for short fold/snapshot sections, never across an analysis.
	//noisevet:lockrank daemon 3
	mu           sync.Mutex
	window       *noise.Window
	streamEvents *stats.Rolling
	consumed     uint64
	streams      uint64
	errors       uint64
	sampled      uint64
	evicted      bool
}

// Status is a point-in-time snapshot of a session for sinks and the
// status endpoint.
type Status struct {
	// ID names the tenant.
	ID string
	// Window is the rolling summary merged over the live buckets.
	Window noise.WindowSummary
	// StreamEvents summarises per-stream event counts over the window.
	StreamEvents stats.Summary
	// Consumed counts lifetime event records charged to the budget.
	Consumed uint64
	// Remaining is the lifetime budget left, in event records
	// (math.MaxUint64 when unlimited).
	Remaining uint64
	// Streams counts lifetime ingests, successful or not.
	Streams uint64
	// Errors counts lifetime failed ingests.
	Errors uint64
	// Sampled counts lifetime overload-degraded ingests.
	Sampled uint64
	// Evicted reports whether the lifetime budget is exhausted.
	Evicted bool
}

// New builds a session. ctx bounds the tenant's lifetime: cancelling it
// (or Close) aborts in-flight analyses with noise.ErrCancelled.
func New(ctx context.Context, cfg Config) *Session {
	sctx, cancel := context.WithCancel(ctx)
	shards := cfg.Shards
	if shards < 1 {
		shards = 1
	}
	buckets := cfg.WindowBuckets
	if buckets < 1 {
		buckets = 1
	}
	return &Session{
		id:           cfg.ID,
		opts:         cfg.Options,
		budget:       cfg.Budget,
		cap:          lifetimeCap(cfg.Budget),
		shards:       shards,
		ctx:          sctx,
		cancel:       cancel,
		window:       noise.NewWindow(buckets),
		streamEvents: stats.NewRolling(buckets),
	}
}

// ID returns the tenant identifier.
func (s *Session) ID() string { return s.id }

// Evicted reports whether the tenant has exhausted its lifetime budget.
func (s *Session) Evicted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// Close cancels the session context, aborting any in-flight analysis.
// The session's window and counters stay readable.
func (s *Session) Close() { s.cancel() }

// streamBudget computes the budget for the next stream: the per-stream
// caps from Options, clamped to the remaining lifetime allowance and,
// when sampleEvents > 0 (overload degradation), to that sample size.
// The second result is false when the lifetime budget is exhausted.
func (s *Session) streamBudget(sampleEvents uint64) (noise.Budget, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.evicted {
		return noise.Budget{}, false
	}
	remaining := ^uint64(0)
	if s.cap != ^uint64(0) {
		if s.consumed >= s.cap {
			s.evicted = true
			return noise.Budget{}, false
		}
		remaining = s.cap - s.consumed
	}
	b := s.opts.Budget
	if b.MaxInterruptions == 0 {
		b.MaxInterruptions = s.budget.MaxInterruptions
	}
	if remaining != ^uint64(0) && (b.MaxEvents == 0 || b.MaxEvents > remaining) {
		b.MaxEvents = remaining
	}
	if sampleEvents > 0 && (b.MaxEvents == 0 || b.MaxEvents > sampleEvents) {
		b.MaxEvents = sampleEvents
	}
	return b, true
}

// Ingest runs one summary-only streaming analysis over d and merges
// the stream's summary into the rolling window. ctx bounds this stream
// only; the session context bounds the tenant (eviction and daemon
// shutdown cancel it). sampleEvents > 0 degrades the stream to a
// sampled prefix of that many events — the router's overload escape
// valve. The returned summary covers this stream alone; on a cancelled
// analysis it is the partial one noise.SummarizeStream returns.
func (s *Session) Ingest(ctx context.Context, d *trace.Decoder, sampleEvents uint64) (noise.WindowSummary, error) {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()

	budget, ok := s.streamBudget(sampleEvents)
	if !ok {
		s.cancel()
		return noise.WindowSummary{}, fmt.Errorf("%w: tenant %s", ErrEvicted, s.id)
	}
	// A closed or daemon-cancelled session refuses deterministically
	// rather than racing AfterFunc against a short analysis.
	if err := s.ctx.Err(); err != nil {
		s.mu.Lock()
		s.streams++
		s.errors++
		s.mu.Unlock()
		return noise.WindowSummary{}, fmt.Errorf("%w: tenant %s: %w", noise.ErrCancelled, s.id, err)
	}

	// Tie the stream context to the session context without leaking a
	// goroutine per stream: AfterFunc fires cancel if the session dies
	// mid-analysis, and stop() detaches it on the way out.
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(s.ctx, cancel)
	defer stop()

	opts := s.opts
	opts.Budget = budget
	sum, err := noise.SummarizeStream(ictx, d, opts, s.shards)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.streams++
	if err != nil {
		s.errors++
		return sum, err
	}
	if sampleEvents > 0 {
		s.sampled++
	}
	s.consumed += sum.EventsConsumed
	s.window.Add(&sum)
	s.streamEvents.Add(int64(sum.EventsConsumed))
	if s.cap != ^uint64(0) && s.consumed >= s.cap {
		s.evicted = true
		s.cancel()
	}
	return sum, nil
}

// snapshotLocked builds a Status; callers hold mu.
func (s *Session) snapshotLocked() Status {
	remaining := ^uint64(0)
	if s.cap != ^uint64(0) {
		if s.consumed < s.cap {
			remaining = s.cap - s.consumed
		} else {
			remaining = 0
		}
	}
	return Status{
		ID:           s.id,
		Window:       s.window.Merged(),
		StreamEvents: s.streamEvents.Merged(),
		Consumed:     s.consumed,
		Remaining:    remaining,
		Streams:      s.streams,
		Errors:       s.errors,
		Sampled:      s.sampled,
		Evicted:      s.evicted,
	}
}

// Status snapshots the session without advancing the window.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

// Cut snapshots the session and then rotates the rolling window — the
// flush-interval operation: the returned Status covers the window up to
// and including the interval just ended.
func (s *Session) Cut() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.snapshotLocked()
	s.window.Rotate()
	s.streamEvents.Rotate()
	return st
}
