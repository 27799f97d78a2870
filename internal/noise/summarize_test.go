package noise_test

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"

	"osnoise/internal/daemon/daemontest"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// raceEnabled is set by race_test.go in -race builds, where sync.Pool
// drops a share of its Puts on purpose and allocation counts stop
// measuring the code.
var raceEnabled bool

// TestSummarizeConcurrentWithAnalyze runs SummarizeStream and
// AnalyzeStream from several goroutines at once over different traces.
// Both paths draw their scratch buffers from the same pools, so a
// buffer recycled while a run still reads it would corrupt a
// neighbour's result; every result must still equal its sequential
// oracle.
func TestSummarizeConcurrentWithAnalyze(t *testing.T) {
	opts := noise.DefaultOptions()
	type fixture struct {
		raw     []byte
		want    *noise.Report
		wantSum noise.WindowSummary
	}
	var fx []fixture
	for _, seed := range []uint64{2, 7} {
		tr := simTrace(seed)
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		f := fixture{raw: buf.Bytes(), want: noise.Analyze(tr, opts)}
		f.wantSum.AddReport(f.want)
		fx = append(fx, f)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := fx[g%len(fx)]
			for i := 0; i < 4; i++ {
				d, err := trace.NewDecoder(bytes.NewReader(f.raw))
				if err != nil {
					t.Error(err)
					return
				}
				if g%2 == 0 {
					sum, err := noise.SummarizeStream(context.Background(), d, opts, 2)
					if err != nil {
						t.Error(err)
						return
					}
					summariesEqual(t, "concurrent SummarizeStream", f.wantSum, sum)
					continue
				}
				r, err := noise.AnalyzeStream(context.Background(), d, opts, 2)
				if err != nil {
					t.Error(err)
					return
				}
				compareReports(t, f.want, r)
			}
		}(g)
	}
	wg.Wait()
}

// TestSummarizeStreamAllocBytes bounds the summary path's steady-state
// allocation relative to the full stream analysis on the same daemon
// trace: SummarizeStream builds no Span or Interruption and recycles
// its scratch buffers, so it must allocate at most a quarter of
// AnalyzeStream's bytes per event. A relative bound holds across hosts
// where an absolute one would drift.
func TestSummarizeStreamAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops recycled buffers at random under -race")
	}
	tr := daemontest.Trace(1)
	raw := daemontest.Encode(tr)
	opts := noise.DefaultOptions()
	opts.KeepDurations = false
	ctx := context.Background()
	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	const warm, runs = 5, 20
	bytesPerEvent := func(analyze func() (uint64, error)) float64 {
		t.Helper()
		var events uint64
		var before, after runtime.MemStats
		for i := 0; i < warm+runs; i++ {
			if i == warm {
				events = 0
				runtime.ReadMemStats(&before)
			}
			if err := d.Reset(bytes.NewReader(raw)); err != nil {
				t.Fatal(err)
			}
			n, err := analyze()
			if err != nil {
				t.Fatal(err)
			}
			events += n
		}
		runtime.ReadMemStats(&after)
		if events == 0 {
			t.Fatal("no events analysed")
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(events)
	}
	full := bytesPerEvent(func() (uint64, error) {
		r, err := noise.AnalyzeStream(ctx, d, opts, 1)
		if err != nil {
			return 0, err
		}
		return r.EventsConsumed, nil
	})
	summary := bytesPerEvent(func() (uint64, error) {
		s, err := noise.SummarizeStream(ctx, d, opts, 1)
		return s.EventsConsumed, err
	})
	t.Logf("%d events: AnalyzeStream %.1f B/event, SummarizeStream %.1f B/event", len(tr.Events), full, summary)
	if summary > full/4 {
		t.Fatalf("SummarizeStream allocates %.1f B/event, more than a quarter of AnalyzeStream's %.1f", summary, full)
	}
}
