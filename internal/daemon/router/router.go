// Package router multiplexes ingest streams onto per-tenant sessions
// and drives the flush cycle.
//
// The router is the daemon's control plane: receivers hand it (tenant,
// decoder) pairs; it finds or creates the tenant.Session, applies the
// global concurrency gate, and returns a compact Result. Once per
// flush interval the daemon calls Flush, which cuts every tenant's
// rolling window into a sink.Record batch and fans it out to the
// configured sinks.
//
// Overload never fails a stream outright: analyses run under a
// fixed-size slot semaphore, and when the queue of waiters grows past
// MaxPending, newly admitted streams are degraded to a sampled prefix
// (SampleEvents records) instead of being rejected — bounded work,
// graceful answers.
package router

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"osnoise/internal/daemon/sink"
	"osnoise/internal/daemon/tenant"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// Config tunes the router and the tenants it creates.
type Config struct {
	// TenantOptions is the analysis configuration every tenant starts
	// from; the zero value is replaced by noise.DefaultOptions.
	TenantOptions noise.Options
	// TenantBudget is the lifetime ingest cap applied to each tenant
	// (see tenant.Config.Budget). Zero means unlimited.
	TenantBudget noise.Budget
	// Shards is the per-stream analysis parallelism.
	Shards int
	// WindowBuckets is the rolling window width in flush intervals;
	// values below 1 become 6.
	WindowBuckets int
	// MaxConcurrent caps simultaneously running analyses; values below
	// 1 become 4 × GOMAXPROCS.
	MaxConcurrent int
	// MaxPending is the waiter-queue depth beyond which new streams
	// are degraded to sampling. Zero or negative disables degradation
	// (waiters block until a slot frees).
	MaxPending int
	// SampleEvents is the per-stream event cap applied to degraded
	// streams; values below 1 become 65536. Ignored while MaxPending
	// disables degradation.
	SampleEvents uint64
	// Now supplies flush timestamps in Unix nanoseconds; nil defaults
	// to the wall clock. Tests inject a fixed clock.
	Now func() int64
}

// Result is the per-stream answer a receiver reports back to the
// client.
type Result struct {
	// Tenant names the session the stream was charged to.
	Tenant string
	// Events is the number of event records the analysis consumed.
	Events uint64
	// NoiseNS is the stream's total noise in nanoseconds.
	NoiseNS int64
	// Seconds is the analysed trace duration.
	Seconds float64
	// Incomplete reports a budget- or cancel-truncated analysis.
	Incomplete bool
	// Sampled reports overload degradation: the stream was analysed
	// as a sampled prefix.
	Sampled bool
	// Evicted reports that the tenant's lifetime budget is exhausted
	// (set both on the stream that exhausts it and on rejections).
	Evicted bool
}

// Router multiplexes streams onto tenants and flushes their windows to
// sinks. Safe for concurrent use by any number of receiver goroutines.
type Router struct {
	cfg   Config
	root  context.Context
	stop  context.CancelFunc
	slots chan struct{}
	sinks []sink.Sink

	pending atomic.Int64
	streams atomic.Uint64
	sampled atomic.Uint64
	failed  atomic.Uint64

	// mu guards the tenant registry; it is the outermost daemon lock
	// (tenant locks nest strictly inside it during Flush).
	//noisevet:lockrank daemon 1
	mu      sync.Mutex
	tenants map[string]*tenant.Session
	closed  bool
}

// New builds a router fanning flushes out to sinks. Tenants live until
// Close; their analyses abort when Close cancels the root context.
func New(cfg Config, sinks ...sink.Sink) *Router {
	if cfg.TenantOptions.GapNS == 0 && !cfg.TenantOptions.AttributeNesting && !cfg.TenantOptions.RunnableFilter {
		cfg.TenantOptions = noise.DefaultOptions()
	}
	if cfg.WindowBuckets < 1 {
		cfg.WindowBuckets = 6
	}
	if cfg.MaxConcurrent < 1 {
		cfg.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if cfg.SampleEvents < 1 {
		cfg.SampleEvents = 65536
	}
	root, stop := context.WithCancel(context.Background())
	return &Router{
		cfg:     cfg,
		root:    root,
		stop:    stop,
		slots:   make(chan struct{}, cfg.MaxConcurrent),
		sinks:   sinks,
		tenants: make(map[string]*tenant.Session),
	}
}

// session finds or creates the tenant's session.
func (rt *Router) session(id string) (*tenant.Session, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, fmt.Errorf("router: closed")
	}
	s, ok := rt.tenants[id]
	if !ok {
		s = tenant.New(rt.root, tenant.Config{
			ID:            id,
			Options:       rt.cfg.TenantOptions,
			Budget:        rt.cfg.TenantBudget,
			Shards:        rt.cfg.Shards,
			WindowBuckets: rt.cfg.WindowBuckets,
		})
		rt.tenants[id] = s
	}
	return s, nil
}

// acquire takes an analysis slot, reporting whether the stream should
// be degraded to sampling because the waiter queue is past MaxPending.
func (rt *Router) acquire(ctx context.Context) (degraded bool, err error) {
	select {
	case rt.slots <- struct{}{}:
		return false, nil
	default:
	}
	n := rt.pending.Add(1)
	defer rt.pending.Add(-1)
	degraded = rt.cfg.MaxPending > 0 && n > int64(rt.cfg.MaxPending)
	select {
	case rt.slots <- struct{}{}:
		return degraded, nil
	case <-ctx.Done():
		return false, fmt.Errorf("%w: %w", noise.ErrCancelled, ctx.Err())
	}
}

// release returns an analysis slot.
func (rt *Router) release() { <-rt.slots }

// Ingest routes one decoded stream to its tenant and runs the analysis
// under the global concurrency gate. The error, when non-nil, wraps
// one of the typed families receivers map to wire answers:
// tenant.ErrEvicted, trace.ErrCorrupt/ErrLimit, noise.ErrCancelled.
func (rt *Router) Ingest(ctx context.Context, tenantID string, d *trace.Decoder) (Result, error) {
	res := Result{Tenant: tenantID}
	s, err := rt.session(tenantID)
	if err != nil {
		return res, err
	}
	if s.Evicted() {
		res.Evicted = true
		return res, fmt.Errorf("%w: tenant %s", tenant.ErrEvicted, tenantID)
	}
	degraded, err := rt.acquire(ctx)
	if err != nil {
		return res, err
	}
	defer rt.release()

	var sample uint64
	if degraded {
		sample = rt.cfg.SampleEvents
	}
	sum, err := s.Ingest(ctx, d, sample)
	rt.streams.Add(1)
	res.Evicted = s.Evicted()
	res.Events = sum.EventsConsumed
	res.Incomplete = sum.Incomplete > 0
	if err != nil {
		rt.failed.Add(1)
		return res, err
	}
	if degraded {
		rt.sampled.Add(1)
		res.Sampled = true
	}
	res.NoiseNS = sum.TotalNoiseNS
	res.Seconds = sum.Seconds
	return res, nil
}

// InFlight returns the number of streams holding or waiting for an
// analysis slot — the drain condition at shutdown.
func (rt *Router) InFlight() int {
	return len(rt.slots) + int(rt.pending.Load())
}

// Streams returns the lifetime ingest count across all tenants.
func (rt *Router) Streams() uint64 { return rt.streams.Load() }

// SampledStreams returns the lifetime overload-degraded ingest count.
func (rt *Router) SampledStreams() uint64 { return rt.sampled.Load() }

// FailedStreams returns the lifetime failed ingest count.
func (rt *Router) FailedStreams() uint64 { return rt.failed.Load() }

// Tenants snapshots every session without advancing any window,
// ordered by tenant ID.
func (rt *Router) Tenants() []tenant.Status {
	sessions := rt.sessions()
	out := make([]tenant.Status, len(sessions))
	for i, s := range sessions {
		out[i] = s.Status()
	}
	return out
}

// sessions returns the live sessions ordered by tenant ID.
func (rt *Router) sessions() []*tenant.Session {
	rt.mu.Lock()
	ids := make([]string, 0, len(rt.tenants))
	for id := range rt.tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*tenant.Session, len(ids))
	for i, id := range ids {
		out[i] = rt.tenants[id]
	}
	rt.mu.Unlock()
	return out
}

// Flush cuts every tenant's window (snapshot + rotate) into a Record
// batch and emits it to every sink. Sink failures are joined into the
// returned error; analysis state is already rotated either way.
func (rt *Router) Flush(ctx context.Context) error {
	sessions := rt.sessions()
	now := time.Now().UnixNano()
	if rt.cfg.Now != nil {
		now = rt.cfg.Now()
	}
	recs := make([]sink.Record, 0, len(sessions))
	for _, s := range sessions {
		st := s.Cut()
		recs = append(recs, sink.Record{
			Tenant:         st.ID,
			TimeNS:         now,
			Window:         st.Window,
			StreamEvents:   st.StreamEvents,
			Streams:        st.Streams,
			Errors:         st.Errors,
			SampledStreams: st.Sampled,
			Evicted:        st.Evicted,
		})
	}
	var errs []error
	for _, sk := range rt.sinks {
		if err := sk.Emit(ctx, recs); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Close runs a final Flush, cancels every tenant's context and closes
// the sinks. The router accepts no new tenants afterwards.
func (rt *Router) Close(ctx context.Context) error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	rt.mu.Unlock()

	flushErr := rt.Flush(ctx)
	rt.stop()
	var errs []error
	if flushErr != nil {
		errs = append(errs, flushErr)
	}
	for _, sk := range rt.sinks {
		if err := sk.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
