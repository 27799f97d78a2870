package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"osnoise/internal/daemon/receiver"
	"osnoise/internal/daemon/router"
	"osnoise/internal/daemon/sink"
	"osnoise/internal/daemon/tenant"
	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// payload is one pre-encoded stream with the oracle's answer for it.
type payload struct {
	raw     []byte
	events  uint64
	noiseNS int64
}

// stream is one scheduled POST: which tenant sends which payload.
type stream struct {
	tenant  int
	payload int
}

// ingest is the noised path: streams POSTed in-process through
// receiver.IngestHandler into a router.Router, a Prom sink flushed and
// scraped on a fixed wall-clock tick.
type ingest struct {
	pool   []payload
	urls   []string // per tenant: the ingest request target
	ids    []string // per tenant: the tenant identifier
	phaseA []stream // open-loop arrivals, due at dueA
	dueA   []time.Duration
	phaseB []stream // closed-loop sequence, cycled
	opts   noise.Options
	replay int // streams the probes and the correctness check replay
	probeN int
	// capacityFor is how long the probe that measures capacity with
	// GOMAXPROCS callers runs.
	capacityFor time.Duration
	traced      ingestTrace // what the last traced measure saw
}

// ingestTrace keeps the traced loop's own counters for layers().
type ingestTrace struct {
	inflight    []float64
	lag         []time.Duration
	scrapeBytes []float64
	streams     uint64
	sampled     uint64
	failed      uint64
}

const (
	flushEvery  = 250 * time.Millisecond
	openShare   = 0.3            // of the run is phase A; phase B gets the rest
	maxPending  = 64             // noised's default
	maxPhaseSec = 120            // schedule length; longer runs reuse nothing
	phaseBOps   = 1 << 20        // closed-loop ops are numbered from here
	flushOps    = int64(1) << 40 // flush ops are numbered from here
)

func setupIngest(seed int64, sz size) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	opts := noise.DefaultOptions()
	opts.KeepDurations = false // the router forces this for every tenant
	in := &ingest{opts: opts, replay: sz.replay, probeN: sz.probeReps, capacityFor: sz.capacityProbe}

	profiles := []func() *workload.Profile{workload.AMG, workload.LAMMPS, workload.UMT}
	build := func(i int, d sim.Duration) error {
		tr := workload.New(profiles[i%len(profiles)](), workload.Options{Duration: d, Seed: rng.Uint64()}).Execute()
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			return fmt.Errorf("encoding payload %d: %w", i, err)
		}
		decoded, err := trace.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("decoding payload %d: %w", i, err)
		}
		rep := noise.Analyze(decoded, opts)
		in.pool = append(in.pool, payload{raw: buf.Bytes(), events: rep.EventsConsumed, noiseNS: rep.TotalNoiseNS})
		return nil
	}
	for i := 0; i < sz.poolSmall; i++ {
		if err := build(i, sz.smallPayload); err != nil {
			return nil, err
		}
	}
	for i := 0; i < sz.poolLarge; i++ {
		if err := build(i, sz.largePayload); err != nil {
			return nil, err
		}
	}

	for t := 0; t < sz.tenants; t++ {
		id := fmt.Sprintf("t%02d", t)
		in.ids = append(in.ids, id)
		in.urls = append(in.urls, "/v1/ingest?tenant="+id)
	}
	// Tenants and common payloads are drawn at random; every
	// largeEvery-th stream is a rare payload, taken from the rare pool in
	// turn, so each run holds the same mix and a tail percentile falls
	// in the same part of it.
	picker := newZipfPicker(rng, sz.tenants, 1.1)
	sequence := func(n int) []stream {
		out := make([]stream, n)
		for i := range out {
			out[i].tenant = picker.next()
			if i%sz.largeEvery == sz.largeEvery-1 {
				out[i].payload = sz.poolSmall + (i/sz.largeEvery)%sz.poolLarge
			} else {
				out[i].payload = rng.Intn(sz.poolSmall)
			}
		}
		return out
	}
	n := int(sz.rate*maxPhaseSec) + 1
	in.dueA = poissonSchedule(rng, sz.rate, n)
	in.phaseA = sequence(n)
	in.phaseB = sequence(n)
	return in, nil
}

// answer is the part of the handler's JSON answer the checks read.
type answer struct {
	Events  uint64
	NoiseNS int64
	Sampled bool
}

// send POSTs one stream through the handler and reports whether the
// answer is a 200 carrying the oracle's numbers, and whether the router
// sampled it.
func (in *ingest) send(ctx context.Context, h http.Handler, s stream) (ok, sampled bool) {
	p := &in.pool[s.payload]
	req := httptest.NewRequest(http.MethodPost, in.urls[s.tenant], bytes.NewReader(p.raw)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var a answer
	if w.Code != http.StatusOK || json.Unmarshal(w.Body.Bytes(), &a) != nil {
		return false, false
	}
	if a.Sampled {
		return true, true // a sampled prefix has its own, smaller numbers
	}
	return a.Events == p.events && a.NoiseNS == p.noiseNS, false
}

func newRouter(sinks ...sink.Sink) *router.Router {
	return router.New(router.Config{
		Shards:        1,
		MaxConcurrent: callers(),
		MaxPending:    maxPending,
	}, sinks...)
}

func (in *ingest) measure(d time.Duration, rec *recorder) measurement {
	prom := sink.NewProm()
	var sk sink.Sink = prom
	if rec != nil {
		sk = &timedSink{Sink: prom, rec: rec}
	}
	rt := newRouter(sk)
	var ing receiver.Ingestor = rt
	if rec != nil {
		ing = &timedIngestor{next: rt, rec: rec}
	}
	h := receiver.IngestHandler(ing)
	ctx := context.Background()

	for i := 0; i < 2*callers(); i++ { // warm-up, untimed
		in.send(ctx, h, in.phaseB[len(in.phaseB)-1-i])
	}

	var scrapeBytes []float64
	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		tick := time.NewTicker(flushEvery)
		defer tick.Stop()
		for op := flushOps; ; op++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			id := rec.start("router.flush", op, 0)
			_ = rt.Flush(withParent(ctx, op, id))
			rec.finish(id)
			sid := rec.start("sink.scrape", op, 0)
			w := httptest.NewRecorder()
			prom.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			rec.finish(sid)
			scrapeBytes = append(scrapeBytes, float64(w.Body.Len()))
		}
	}()

	var failed, sampled atomic.Int64
	var inflight []float64
	if rec != nil {
		inflight = make([]float64, len(in.phaseA))
	}
	one := func(op int64, s stream) float64 {
		root := rec.start("bench.stream", op, 0)
		id := rec.start("receiver.serve", op, root)
		ok, smp := in.send(withParent(ctx, op, id), h, s)
		rec.finish(id)
		rec.finish(root)
		if !ok {
			failed.Add(1)
		}
		if smp {
			sampled.Add(1)
		}
		return float64(in.pool[s.payload].events)
	}

	phaseA := time.Duration(float64(d) * openShare)
	open := runOpenLoop(in.dueA, phaseA, callers(), func(i int) {
		if inflight != nil {
			inflight[i] = float64(rt.InFlight())
		}
		one(int64(i), in.phaseA[i])
	})
	// Phase B has one caller: each stream already keeps GOMAXPROCS
	// goroutines busy (the caller decoding, an AnalyzeStream worker
	// walking), so a second caller only oversubscribes the cores, and
	// its figure then swings with the host's scheduling rather than with
	// the program. The GOMAXPROCS-caller capacity is a per-layer metric.
	a0 := heapAllocs()
	closed := runClosedLoop(d-phaseA, 1, func(i int) float64 {
		return one(phaseBOps+int64(i), in.phaseB[i%len(in.phaseB)])
	})
	alloc := heapAllocs() - a0

	close(stop)
	flusher.Wait()
	_ = rt.Close(ctx)

	if rec != nil {
		in.traced = ingestTrace{
			inflight:    inflight[:open.Issued],
			lag:         open.Lag,
			scrapeBytes: scrapeBytes,
			streams:     rt.Streams(),
			sampled:     rt.SampledStreams(),
			failed:      rt.FailedStreams(),
		}
	}
	return measurement{
		closed:     closed,
		latency:    open.Latency,
		tailQ:      0.99,
		allocBytes: alloc,
		attempted:  open.Issued + len(closed.Time),
		failed:     int(failed.Load()),
		sampled:    int(sampled.Load()),
	}
}

// timedIngestor wraps the router to time each Ingest call as a child
// of the receiver span that made it.
type timedIngestor struct {
	next receiver.Ingestor
	rec  *recorder
}

func (t *timedIngestor) Ingest(ctx context.Context, tenantID string, d *trace.Decoder) (router.Result, error) {
	p := parentOf(ctx)
	id := t.rec.start("router.ingest", p.op, p.id)
	defer t.rec.finish(id)
	return t.next.Ingest(ctx, tenantID, d)
}

// timedSink wraps a sink to time each Emit as a child of the flush
// that called it.
type timedSink struct {
	sink.Sink
	rec *recorder
}

func (t *timedSink) Emit(ctx context.Context, recs []sink.Record) error {
	p := parentOf(ctx)
	id := t.rec.start("sink.emit", p.op, p.id)
	defer t.rec.finish(id)
	return t.Sink.Emit(ctx, recs)
}

// phaseASpans returns the median duration of the open-loop spans named
// name.
func phaseASpans(loop []span, name string) float64 {
	var ms []float64
	for i := range loop {
		if s := &loop[i]; s.Name == name && s.Op < phaseBOps {
			ms = append(ms, float64(s.End-s.Start)/1e6)
		}
	}
	return median(ms)
}

func (in *ingest) layers(rec *recorder, loop []span, m *measurement) map[string]float64 {
	out := map[string]float64{
		"receiver.serve_ms": phaseASpans(loop, "receiver.serve"),
		"router.ingest_ms":  phaseASpans(loop, "router.ingest"),
		"router.flush_ms":   median(durationsOf(loop, "router.flush")),
		"sink.emit_ms":      median(durationsOf(loop, "sink.emit")),
		"sink.scrape_ms":    median(durationsOf(loop, "sink.scrape")),
		"sink.scrape_bytes": mean(in.traced.scrapeBytes),
		"router.streams":    float64(in.traced.streams),

		"router.sampled_streams":          float64(in.traced.sampled),
		"router.failed_streams":           float64(in.traced.failed),
		"router.inflight_at_arrival.mean": mean(in.traced.inflight),
		"loadgen.lag_ms_p99":              quantile(sortedCopy(durationsMS(in.traced.lag)), 0.99),
	}
	maxInflight := 0.0
	for _, v := range in.traced.inflight {
		maxInflight = max(maxInflight, v)
	}
	out["router.inflight_at_arrival.max"] = maxInflight

	ctx := context.Background()
	op := int64(1 << 50)
	decoderNew := make([]float64, 0, len(in.pool)*in.probeN)
	for r := 0; r < in.probeN; r++ {
		for i := range in.pool {
			op++
			id := rec.start("trace.NewDecoder", op, 0)
			t0 := time.Now()
			_, _ = trace.NewDecoder(bytes.NewReader(in.pool[i].raw))
			decoderNew = append(decoderNew, float64(time.Since(t0))/1e3)
			rec.finish(id)
		}
	}
	out["trace.decoder_new_us"] = median(decoderNew)

	// The first replay streams of the open-loop sequence, serially,
	// through AnalyzeStream and then through directly built tenant
	// sessions: the per-stream cost without the receiver, router
	// admission or lock wait.
	n := min(in.replay, len(in.phaseA))
	streamMS := make([]float64, 0, n)
	var allocs uint64
	for _, s := range in.phaseA[:n] {
		op++
		d, err := trace.NewDecoder(bytes.NewReader(in.pool[s.payload].raw))
		if err != nil {
			continue
		}
		a0 := heapAllocs()
		id := rec.start("noise.AnalyzeStream", op, 0)
		t0 := time.Now()
		_, _ = noise.AnalyzeStream(ctx, d, in.opts, 1)
		streamMS = append(streamMS, float64(time.Since(t0))/1e6)
		rec.finish(id)
		allocs += heapAllocs() - a0
	}
	out["noise.analyze_stream_ms"] = median(streamMS)
	out["noise.alloc_bytes.stream"] = float64(allocs) / float64(max(n, 1))

	sessions := make([]*tenant.Session, len(in.ids))
	tenantMS := make([]float64, 0, n)
	for _, s := range in.phaseA[:n] {
		op++
		if sessions[s.tenant] == nil {
			sessions[s.tenant] = tenant.New(ctx, tenant.Config{ID: in.ids[s.tenant], Options: in.opts, Shards: 1, WindowBuckets: 6})
		}
		d, err := trace.NewDecoder(bytes.NewReader(in.pool[s.payload].raw))
		if err != nil {
			continue
		}
		id := rec.start("tenant.Ingest", op, 0)
		t0 := time.Now()
		_, _ = sessions[s.tenant].Ingest(ctx, d, 0)
		tenantMS = append(tenantMS, float64(time.Since(t0))/1e6)
		rec.finish(id)
	}
	for _, s := range sessions {
		if s != nil {
			s.Close()
		}
	}
	out["tenant.ingest_ms"] = median(tenantMS)
	out["router.capacity_events_per_s"] = in.capacity(m)
	return out
}

// capacity runs the phase-B sequence through a fresh router from
// GOMAXPROCS callers, untraced, and returns its throughput. Streams of
// one tenant that arrive together wait on each other here, which one
// caller never shows. Its operations and wrong answers count in m.
func (in *ingest) capacity(m *measurement) float64 {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	h := receiver.IngestHandler(rt)
	ctx := context.Background()
	for i := 0; i < 2*callers(); i++ { // warm-up, untimed
		in.send(ctx, h, in.phaseB[len(in.phaseB)-1-i])
	}
	var failed atomic.Int64
	res := runClosedLoop(in.capacityFor, callers(), func(i int) float64 {
		s := in.phaseB[i%len(in.phaseB)]
		if ok, _ := in.send(ctx, h, s); !ok {
			failed.Add(1)
		}
		return float64(in.pool[s.payload].events)
	})
	m.attempted += len(res.Time)
	m.failed += int(failed.Load())
	return res.throughput()
}

// check replays the first streams of the open-loop sequence through a
// fresh router and compares each tenant's window with a batch fold of
// the oracle answers for the streams it was sent. The compared totals
// are integers, so the fold order does not matter.
func (in *ingest) check() (int, []string) {
	type fold struct {
		streams int
		events  uint64
		noiseNS int64
	}
	rt := newRouter()
	h := receiver.IngestHandler(rt)
	ctx := context.Background()
	want := make(map[string]*fold)
	var failures []string
	n := min(in.replay, len(in.phaseA))
	for i, s := range in.phaseA[:n] {
		if ok, _ := in.send(ctx, h, s); !ok {
			failures = append(failures, fmt.Sprintf("ingest: check stream %d: wrong answer", i))
		}
		f := want[in.ids[s.tenant]]
		if f == nil {
			f = &fold{}
			want[in.ids[s.tenant]] = f
		}
		f.streams++
		f.events += in.pool[s.payload].events
		f.noiseNS += in.pool[s.payload].noiseNS
	}
	statuses := rt.Tenants()
	_ = rt.Close(ctx)
	if len(statuses) != len(want) {
		failures = append(failures, fmt.Sprintf("ingest: %d tenants in the router, %d sent streams", len(statuses), len(want)))
	}
	for _, st := range statuses {
		f := want[st.ID]
		switch {
		case f == nil:
			failures = append(failures, fmt.Sprintf("ingest: tenant %s was sent nothing", st.ID))
		case st.Window.Reports != f.streams || st.Streams != uint64(f.streams) ||
			st.Window.EventsConsumed != f.events || st.Window.TotalNoiseNS != f.noiseNS:
			failures = append(failures, fmt.Sprintf("ingest: tenant %s window {reports %d, events %d, noise %d ns} != batch fold {%d, %d, %d}",
				st.ID, st.Window.Reports, st.Window.EventsConsumed, st.Window.TotalNoiseNS, f.streams, f.events, f.noiseNS))
		}
	}
	return n + len(statuses), failures
}
