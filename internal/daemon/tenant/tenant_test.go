package tenant_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"osnoise/internal/daemon/daemontest"
	"osnoise/internal/daemon/tenant"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// ingest streams one encoded trace into the session and returns the
// stream's summary.
func ingest(t *testing.T, s *tenant.Session, raw []byte, sample uint64) (noise.WindowSummary, error) {
	t.Helper()
	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return s.Ingest(context.Background(), d, sample)
}

// daemonOptions mirrors the analysis options the router gives tenants.
func daemonOptions() noise.Options {
	opts := noise.DefaultOptions()
	opts.KeepDurations = false
	return opts
}

// TestSessionBitIdenticalToBatch: a session's window after streaming N
// traces equals the batch analyzer's reports folded in the same order,
// bit for bit.
func TestSessionBitIdenticalToBatch(t *testing.T) {
	s := tenant.New(context.Background(), tenant.Config{
		ID: "a", Options: daemonOptions(), WindowBuckets: 4,
	})
	var want noise.WindowSummary
	for seed := uint64(1); seed <= 3; seed++ {
		tr := daemontest.Trace(seed)
		want.AddReport(noise.Analyze(tr, daemonOptions()))
		if _, err := ingest(t, s, daemontest.Encode(tr), 0); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Status().Window
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("window diverges from batch fold:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestSessionLifetimeBudgetEvicts: a tenant whose cumulative intake
// crosses its lifetime cap degrades that stream, then rejects the next
// one with ErrEvicted.
func TestSessionLifetimeBudgetEvicts(t *testing.T) {
	tr := daemontest.Trace(1)
	raw := daemontest.Encode(tr)
	full := uint64(len(tr.Events))
	s := tenant.New(context.Background(), tenant.Config{
		ID:      "a",
		Options: daemonOptions(),
		Budget:  noise.Budget{MaxEvents: full + full/2}, // 1.5 traces
	})

	sum, err := ingest(t, s, raw, 0)
	if err != nil || sum.Incomplete != 0 {
		t.Fatalf("first stream under budget: err=%v incomplete=%d", err, sum.Incomplete)
	}
	sum, err = ingest(t, s, raw, 0)
	if err != nil {
		t.Fatalf("second stream errored instead of degrading: %v", err)
	}
	if sum.Incomplete != 1 || sum.EventsConsumed != full/2 {
		t.Fatalf("second stream: incomplete=%d consumed=%d, want truncation to %d",
			sum.Incomplete, sum.EventsConsumed, full/2)
	}
	if !s.Evicted() {
		t.Fatal("session not evicted after exhausting its lifetime budget")
	}
	if _, err := ingest(t, s, raw, 0); !errors.Is(err, tenant.ErrEvicted) {
		t.Fatalf("post-eviction ingest err = %v, want ErrEvicted", err)
	}
	st := s.Status()
	if st.Remaining != 0 || !st.Evicted {
		t.Fatalf("status after eviction: %+v", st)
	}
}

// TestBudgetIsolation: one tenant blowing its cap leaves a neighbour's
// window bit-identical to an unconstrained run — the per-tenant
// isolation contract.
func TestBudgetIsolation(t *testing.T) {
	tr := daemontest.Trace(7)
	raw := daemontest.Encode(tr)
	ctx := context.Background()

	greedy := tenant.New(ctx, tenant.Config{
		ID: "greedy", Options: daemonOptions(),
		Budget: noise.Budget{MaxEvents: uint64(len(tr.Events)) / 4},
	})
	quiet := tenant.New(ctx, tenant.Config{ID: "quiet", Options: daemonOptions()})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := trace.NewDecoder(bytes.NewReader(raw))
			if err != nil {
				t.Error(err)
				return
			}
			_, _ = greedy.Ingest(ctx, d, 0) // expected to degrade/evict
		}()
	}
	for i := 0; i < 2; i++ {
		if _, err := ingest(t, quiet, raw, 0); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	if !greedy.Evicted() {
		t.Fatal("greedy tenant survived 4× its lifetime budget")
	}
	var want noise.WindowSummary
	rep := noise.Analyze(tr, daemonOptions())
	want.AddReport(rep)
	want.AddReport(rep)
	if got := quiet.Status().Window; !reflect.DeepEqual(want, got) {
		t.Fatalf("neighbour window disturbed:\nwant %+v\ngot  %+v", want, got)
	}
	if st := quiet.Status(); st.Evicted || st.Errors != 0 {
		t.Fatalf("neighbour status disturbed: %+v", st)
	}
}

// TestSessionSampleCap: an overload sample cap truncates the stream
// and counts it as sampled.
func TestSessionSampleCap(t *testing.T) {
	tr := daemontest.Trace(2)
	s := tenant.New(context.Background(), tenant.Config{ID: "a", Options: daemonOptions()})
	cap := uint64(len(tr.Events)) / 3
	sum, err := ingest(t, s, daemontest.Encode(tr), cap)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Incomplete != 1 || sum.EventsConsumed != cap {
		t.Fatalf("sampled stream consumed %d (incomplete=%d), want cap %d",
			sum.EventsConsumed, sum.Incomplete, cap)
	}
	if st := s.Status(); st.Sampled != 1 {
		t.Fatalf("sampled counter = %d, want 1", st.Sampled)
	}
}

// TestSessionCloseCancelsIngest: closing the session aborts an
// in-flight analysis with the typed cancellation error.
func TestSessionCloseCancelsIngest(t *testing.T) {
	s := tenant.New(context.Background(), tenant.Config{ID: "a", Options: daemonOptions()})
	s.Close()
	_, err := ingest(t, s, daemontest.Encode(daemontest.Trace(1)), 0)
	if !errors.Is(err, noise.ErrCancelled) {
		t.Fatalf("ingest after Close: err = %v, want noise.ErrCancelled", err)
	}
	if st := s.Status(); st.Errors != 1 {
		t.Fatalf("error counter = %d, want 1", st.Errors)
	}
}

// TestCutRotatesWindow: Cut returns the pre-rotation snapshot and the
// next Status starts a fresh interval.
func TestCutRotatesWindow(t *testing.T) {
	s := tenant.New(context.Background(), tenant.Config{
		ID: "a", Options: daemonOptions(), WindowBuckets: 2,
	})
	if _, err := ingest(t, s, daemontest.Encode(daemontest.Trace(1)), 0); err != nil {
		t.Fatal(err)
	}
	st := s.Cut()
	if st.Window.Reports != 1 {
		t.Fatalf("cut snapshot reports = %d, want 1", st.Window.Reports)
	}
	// Window width 2: the report is still inside the rolling window…
	if got := s.Status().Window.Reports; got != 1 {
		t.Fatalf("post-cut window reports = %d, want 1", got)
	}
	// …until it rotates out.
	s.Cut()
	if got := s.Status().Window.Reports; got != 0 {
		t.Fatalf("report survived rotating past the window: %d", got)
	}
}
