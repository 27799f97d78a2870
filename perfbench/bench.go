package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"osnoise/internal/sim"
)

// metricDef names a metric and its unit. Every end-to-end metric is
// printed by every untraced run and every per-layer metric by every
// traced run; a per-layer probe that a workload does not exercise
// reads 0.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Each applies to all three
// workloads and is never 0.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "events/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"alloc_bytes_per_event", "B/event", "lower"},
}

// sequoiaNames are the five profiles sim-sequoia runs, in paper order.
var sequoiaNames = []string{"AMG", "IRS", "LAMMPS", "SPHOT", "UMT"}

// perLayer is what the traced run reports about single layers.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{Name: "host.ftq_noise_pct", Unit: "%"},
		{Name: "host.ftq_noise_pct_before", Unit: "%"},
		{Name: "host.ftq_noise_pct_after", Unit: "%"},
		{Name: "host.gomaxprocs", Unit: "count"},
		{Name: "host.nproc", Unit: "count"},
		{Name: "runtime.gc_cycles", Unit: "count"},
		{Name: "runtime.gc_pause_ms", Unit: "ms"},
		{Name: "failed_ratio", Unit: "fraction"},
		{Name: "sampled_ratio", Unit: "fraction"},
		{Name: "setup_s.samples", Unit: "count"},
		{Name: "latency_ms.samples", Unit: "count"},
		{Name: "latency_ms.tail", Unit: "ms"},
		{Name: "latency_ms.tail_pct", Unit: "%"},
		{Name: "latency_ms.supported_pct", Unit: "%"},
		{Name: "trace_overhead.events_per_s", Unit: "events/s"},
		{Name: "trace_overhead.latency_ms_p50", Unit: "ms"},
		{Name: "trace_overhead.alloc_bytes_per_event", Unit: "B/event"},
		{Name: "bench.self_ms", Unit: "ms"},
		{Name: "noise.self_ms", Unit: "ms"},
		{Name: "receiver.self_ms", Unit: "ms"},
		{Name: "router.self_ms", Unit: "ms"},
		{Name: "sink.self_ms", Unit: "ms"},
		{Name: "workload.self_ms", Unit: "ms"},

		// offline-amg
		{Name: "trace.open_ms", Unit: "ms"},
		{Name: "trace.decode_ms", Unit: "ms"},
		{Name: "trace.read_ms", Unit: "ms"},
		{Name: "noise.analyze_raw_ms", Unit: "ms"},
		{Name: "noise.analyze_raw_ms.shards1", Unit: "ms"},
		{Name: "noise.analyze_raw_ms.epochs1", Unit: "ms"},
		{Name: "noise.analyze_parallel_ms", Unit: "ms"},
		{Name: "noise.analyze_ms", Unit: "ms"},
		{Name: "noise.alloc_bytes.raw", Unit: "B"},
		{Name: "noise.spans", Unit: "count"},
		{Name: "noise.interruptions", Unit: "count"},
		{Name: "noise.dropped", Unit: "count"},

		// ingest-zipf
		{Name: "noise.analyze_stream_ms", Unit: "ms"},
		{Name: "noise.alloc_bytes.stream", Unit: "B"},
		{Name: "tenant.ingest_ms", Unit: "ms"},
		{Name: "trace.decoder_new_us", Unit: "us"},
		{Name: "receiver.serve_ms", Unit: "ms"},
		{Name: "router.ingest_ms", Unit: "ms"},
		{Name: "router.inflight_at_arrival.mean", Unit: "count"},
		{Name: "router.inflight_at_arrival.max", Unit: "count"},
		{Name: "router.flush_ms", Unit: "ms"},
		{Name: "sink.emit_ms", Unit: "ms"},
		{Name: "sink.scrape_ms", Unit: "ms"},
		{Name: "sink.scrape_bytes", Unit: "B"},
		{Name: "router.streams", Unit: "count"},
		{Name: "router.sampled_streams", Unit: "count"},
		{Name: "router.failed_streams", Unit: "count"},
		{Name: "router.capacity_events_per_s", Unit: "events/s"},
		{Name: "loadgen.lag_ms_p99", Unit: "ms"},
	}
	// sim-sequoia
	for _, prefix := range []string{"workload.execute_ms.", "workload.execute_untraced_ms.", "noise.analyze_ms."} {
		for _, p := range sequoiaNames {
			defs = append(defs, metricDef{Name: prefix + p, Unit: "ms"})
		}
	}
	for _, p := range sequoiaNames {
		defs = append(defs, metricDef{Name: "trace.events." + p, Unit: "count"})
	}
	defs = append(defs,
		metricDef{Name: "workload.alloc_bytes", Unit: "B"},
		metricDef{Name: "trace.session_overhead_pct", Unit: "%"},
	)
	for i := range defs {
		defs[i].Better = "lower"
		if higherIsBetter(defs[i].Name) {
			defs[i].Better = "higher"
		}
	}
	return defs
}()

// higherIsBetter names the per-layer metrics that count work done or
// samples taken; every other per-layer metric is a cost.
func higherIsBetter(name string) bool {
	switch name {
	case "host.gomaxprocs", "host.nproc", "latency_ms.supported_pct", "trace_overhead.events_per_s",
		"noise.spans", "noise.interruptions", "router.streams", "router.capacity_events_per_s":
		return true
	}
	return strings.HasSuffix(name, ".samples") || strings.HasPrefix(name, "trace.events.")
}

// selfLayers are the layers whose self time the traced loop's spans
// attribute, per operation.
var selfLayers = []string{"bench", "noise", "receiver", "router", "sink", "workload"}

// size scales every workload's inputs. fullSize is the benchmark;
// tinySize keeps the smoke tests fast.
type size struct {
	amgDuration  sim.Duration // offline-amg trace length (virtual)
	smallPayload sim.Duration // ingest-zipf common stream length
	largePayload sim.Duration // ingest-zipf rare stream length
	poolSmall    int          // distinct common payloads
	poolLarge    int          // distinct rare payloads
	largeEvery   int          // every largeEvery-th stream is a rare one
	tenants      int
	rate         float64 // phase-A arrivals per second
	simDuration  sim.Duration
	setupReps    int // set-ups timed per run; setup_s is their median
	probeReps    int // repetitions of each per-layer probe
	replay       int // streams replayed serially by the ingest probes
	// capacityProbe is how long ingest's GOMAXPROCS-caller capacity
	// probe runs.
	capacityProbe time.Duration
}

var fullSize = size{
	amgDuration:  12 * sim.Second, // ≈1M events on 8 CPUs
	smallPayload: 100 * sim.Millisecond,
	largePayload: sim.Second,
	poolSmall:    48,
	poolLarge:    3,
	largeEvery:   50, // 2% of streams
	tenants:      64,
	rate:         300,
	simDuration:  sim.Second, // long enough that per-run set-up costs do not dominate a pass
	setupReps:    3,
	probeReps:    5,
	replay:       300,

	capacityProbe: 5 * time.Second,
}

var tinySize = size{
	amgDuration:  200 * sim.Millisecond,
	smallPayload: 20 * sim.Millisecond,
	largePayload: 100 * sim.Millisecond,
	poolSmall:    6,
	poolLarge:    1,
	largeEvery:   10,
	tenants:      8,
	rate:         100,
	simDuration:  20 * sim.Millisecond,
	setupReps:    2,
	probeReps:    2,
	replay:       10,

	capacityProbe: 200 * time.Millisecond,
}

// callers is ingest's open-loop concurrency, its router's MaxConcurrent
// and its capacity probe's caller count: one per core the runtime may
// use.
func callers() int { return runtime.GOMAXPROCS(0) }

// measurement is what one timed loop saw.
type measurement struct {
	closed     closedResult    // the closed loop throughput is taken from
	latency    []time.Duration // per operation in issue order, from due time to answer
	tailQ      float64         // the percentile latency_ms.tail reports
	allocBytes uint64          // heap allocated during the closed loop
	attempted  int             // operations attempted
	failed     int             // failed operations
	sampled    int             // operations degraded to a sample
}

// figures turns a measurement into the end-to-end metrics it carries.
func (m *measurement) figures() map[string]float64 {
	lat := durationsMS(m.latency)
	out := map[string]float64{
		"events_per_s":   m.closed.throughput(),
		"latency_ms_p50": slicedQuantile(lat, 0.5),
	}
	var events float64
	for _, w := range m.closed.Work {
		events += w
	}
	if events > 0 {
		out["alloc_bytes_per_event"] = float64(m.allocBytes) / events
	}
	return out
}

// instance is a workload with its inputs built.
type instance interface {
	// measure runs the timed loop for d, recording spans into rec when
	// it is non-nil.
	measure(d time.Duration, rec *recorder) measurement
	// layers runs the per-layer probes, recording their spans into rec,
	// and derives per-layer metrics from the probes and from the traced
	// loop's spans. A probe that checks its answers counts its
	// operations and failures in m.
	layers(rec *recorder, loop []span, m *measurement) map[string]float64
	// check verifies the program's outputs once, outside any timed
	// region, and returns how many checks ran and the failures.
	check() (attempted int, failures []string)
}

// workloadDef is one of the benchmark's workloads.
type workloadDef struct {
	name  string
	why   string
	setup func(seed int64, sz size) (instance, error)
}

var workloads = []workloadDef{
	{"offline-amg", "one 1M-event AMG trace through AnalyzeRaw: decode, partition, walk, replay and interruption build do the work; daemon and simulator idle", setupOffline},
	{"ingest-zipf", "many small streams through the noised receiver, router, Zipf-skewed tenants and Prom sink; AnalyzeRaw and epochs bypassed", setupIngest},
	{"sim-sequoia", "the experiment harness loop: simulate and trace the five Sequoia profiles, then the sequential Analyze; codec and daemon bypassed", setupSim},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// probe times fn reps times under a span named name and returns the
// median in milliseconds together with the mean heap allocated per rep.
func probe(rec *recorder, op *int64, name string, reps int, fn func()) (ms float64, alloc float64) {
	times := make([]float64, reps)
	var allocs uint64
	for i := range times {
		*op++
		a0 := heapAllocs()
		t0 := time.Now()
		id := rec.start(name, *op, 0)
		fn()
		rec.finish(id)
		times[i] = float64(time.Since(t0)) / 1e6
		allocs += heapAllocs() - a0
	}
	return median(times), float64(allocs) / float64(reps)
}
