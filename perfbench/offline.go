package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"osnoise/internal/noise"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// offline is the batch analyst's path: one un-tiled AMG trace, encoded
// once, analysed back to back by AnalyzeRaw over the in-memory bytes.
type offline struct {
	raw    []byte
	events int
	opts   noise.Options
	shards int
	reps   int
	oracle *noise.Report // Analyze(trace.Read(raw)), built in set-up
}

func setupOffline(seed int64, sz size) (instance, error) {
	tr := workload.New(workload.AMG(), workload.Options{Duration: sz.amgDuration, Seed: uint64(seed)}).Execute()
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		return nil, fmt.Errorf("encoding AMG trace: %w", err)
	}
	o := &offline{
		raw:    buf.Bytes(),
		events: len(tr.Events),
		opts:   noise.DefaultOptions(),
		shards: runtime.GOMAXPROCS(0),
		reps:   sz.probeReps,
	}
	decoded, err := trace.Read(bytes.NewReader(o.raw))
	if err != nil {
		return nil, fmt.Errorf("decoding AMG trace: %w", err)
	}
	o.oracle = noise.Analyze(decoded, o.opts)
	return o, nil
}

func (o *offline) analyzeRaw(opts noise.Options, shards int) (*noise.Report, error) {
	return noise.AnalyzeRaw(context.Background(), trace.BytesReaderAt(o.raw), int64(len(o.raw)), opts, shards)
}

func (o *offline) measure(d time.Duration, rec *recorder) measurement {
	_, _ = o.analyzeRaw(o.opts, o.shards) // warm the arenas and pools
	m := measurement{tailQ: 0.9}
	a0 := heapAllocs()
	m.closed = runClosedLoop(d, 1, func(i int) float64 {
		root := rec.start("bench.pass", int64(i), 0)
		id := rec.start("noise.AnalyzeRaw", int64(i), root)
		rep, err := o.analyzeRaw(o.opts, o.shards)
		rec.finish(id)
		rec.finish(root)
		m.attempted++
		if err != nil || rep.EventsConsumed != uint64(o.events) {
			m.failed++
		}
		return float64(o.events)
	})
	m.allocBytes = heapAllocs() - a0
	m.latency = m.closed.Time
	return m
}

func (o *offline) layers(rec *recorder, _ []span, _ *measurement) map[string]float64 {
	out := make(map[string]float64)
	op := int64(1 << 40) // probe operations are numbered apart from the loop's
	ra := trace.BytesReaderAt(o.raw)
	size := int64(len(o.raw))

	out["trace.open_ms"], _ = probe(rec, &op, "trace.OpenRaw", 20*o.reps, func() {
		_, _ = trace.OpenRaw(ra, size)
	})
	rt, err := trace.OpenRaw(ra, size)
	if err == nil {
		dst := make([]trace.Event, 4096)
		out["trace.decode_ms"], _ = probe(rec, &op, "trace.Scan+DecodeBatch", o.reps, func() {
			_ = rt.Scan(0, rt.EventCount(), func(_ uint64, chunk []byte) error {
				for len(chunk) > 0 {
					n := trace.DecodeBatch(chunk, dst)
					chunk = chunk[n*trace.EventSize:]
				}
				return nil
			})
		})
	}
	var decoded *trace.Trace
	out["trace.read_ms"], _ = probe(rec, &op, "trace.Read", o.reps, func() {
		decoded, _ = trace.Read(bytes.NewReader(o.raw))
	})
	out["noise.analyze_raw_ms"], out["noise.alloc_bytes.raw"] = probe(rec, &op, "noise.AnalyzeRaw", o.reps, func() {
		_, _ = o.analyzeRaw(o.opts, o.shards)
	})
	out["noise.analyze_raw_ms.shards1"], _ = probe(rec, &op, "noise.AnalyzeRaw/shards1", o.reps, func() {
		_, _ = o.analyzeRaw(o.opts, 1)
	})
	epochs1 := o.opts
	epochs1.Epochs = 1
	out["noise.analyze_raw_ms.epochs1"], _ = probe(rec, &op, "noise.AnalyzeRaw/epochs1", o.reps, func() {
		_, _ = o.analyzeRaw(epochs1, o.shards)
	})
	if decoded != nil {
		out["noise.analyze_parallel_ms"], _ = probe(rec, &op, "noise.AnalyzeParallel", o.reps, func() {
			_, _ = noise.AnalyzeParallel(context.Background(), decoded, o.opts, o.shards)
		})
		out["noise.analyze_ms"], _ = probe(rec, &op, "noise.Analyze", o.reps, func() {
			noise.Analyze(decoded, o.opts)
		})
	}
	out["noise.spans"] = float64(len(o.oracle.Spans))
	out["noise.interruptions"] = float64(len(o.oracle.Interruptions))
	out["noise.dropped"] = float64(o.oracle.Dropped)
	return out
}

func (o *offline) check() (int, []string) {
	rep, err := o.analyzeRaw(o.opts, o.shards)
	switch {
	case err != nil:
		return 1, []string{fmt.Sprintf("offline: AnalyzeRaw: %v", err)}
	case !reflect.DeepEqual(rep, o.oracle):
		return 1, []string{"offline: AnalyzeRaw report differs from Analyze(trace.Read) oracle"}
	}
	return 1, nil
}
