package experiments

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"time"

	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// PipelinePhase is one measured decode+analyze pass over the benchmark
// trace.
type PipelinePhase struct {
	WallNS       int64   `json:"wall_ns"`        // best-of-reps wall clock
	EventsPerSec float64 `json:"events_per_sec"` // throughput at that wall
	AllocBytes   uint64  `json:"alloc_bytes"`    // heap allocated during one pass
}

// PipelineShard is the parallel pipeline measured at one shard count.
type PipelineShard struct {
	Shards int `json:"shards"`
	PipelinePhase
	Speedup float64 `json:"speedup"` // sequential wall / parallel wall
}

// PipelineBench is the machine-readable result of the analysis-pipeline
// benchmark (BENCH_pipeline.json): the sequential decode+analyze
// baseline versus the sharded pipeline at each shard count, on the same
// in-memory trace bytes.
type PipelineBench struct {
	Date       string          `json:"date,omitempty"` // RFC 3339 UTC, stamped when appended to a trajectory
	Events     int             `json:"events"`
	CPUs       int             `json:"cpus"`
	TraceBytes int             `json:"trace_bytes"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Reps       int             `json:"reps"`
	Identical  bool            `json:"reports_identical"` // parallel Report == sequential Report
	Sequential PipelinePhase   `json:"sequential"`
	Parallel   []PipelineShard `json:"parallel"`
}

// tileTrace replicates a base trace, time-shifted end to end, until it
// holds at least target events. Spans left open at a tile boundary are
// dropped by the analyzer exactly like trace-boundary truncation, which
// both analysis paths account identically.
func tileTrace(base *trace.Trace, target int) *trace.Trace {
	if len(base.Events) == 0 || len(base.Events) >= target {
		return base
	}
	first, last := base.Span()
	period := last - first + int64(sim.Millisecond)
	out := &trace.Trace{CPUs: base.CPUs, Lost: base.Lost, Procs: base.Procs}
	out.Events = make([]trace.Event, 0, target+len(base.Events))
	for shift := int64(0); len(out.Events) < target; shift += period {
		for _, ev := range base.Events {
			ev.TS += shift
			out.Events = append(out.Events, ev)
		}
	}
	return out
}

// timed runs fn reps times and returns the best wall time together with
// the heap allocated during the final run.
func timed(reps int, fn func()) (best time.Duration, alloc uint64) {
	var ms0, ms1 runtime.MemStats
	for i := 0; i < reps; i++ {
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if i == 0 || d < best {
			best = d
		}
		alloc = ms1.TotalAlloc - ms0.TotalAlloc
	}
	return best, alloc
}

// RunPipelineBench measures the offline analysis pipeline — decode from
// trace bytes plus full noise analysis — sequentially and sharded at
// each requested shard count, on a tiled workload trace of at least
// targetEvents events. Reports from every configuration are checked for
// bit-identity with the sequential baseline.
func RunPipelineBench(targetEvents int, shardCounts []int, seed uint64, reps int) *PipelineBench {
	if reps < 1 {
		reps = 1
	}
	base := workload.New(workload.AMG(), workload.Options{
		Duration: sim.Second,
		Seed:     seed,
	}).Execute()
	tr := tileTrace(base, targetEvents)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		panic(fmt.Sprintf("pipeline bench: encoding trace: %v", err))
	}
	raw := buf.Bytes()
	opts := noise.DefaultOptions()

	b := &PipelineBench{
		Events:     len(tr.Events),
		CPUs:       tr.CPUs,
		TraceBytes: len(raw),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Identical:  true,
	}

	var seqRep *noise.Report
	wall, alloc := timed(reps, func() {
		dtr, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			panic(err)
		}
		seqRep = noise.Analyze(dtr, opts)
	})
	b.Sequential = PipelinePhase{
		WallNS:       wall.Nanoseconds(),
		EventsPerSec: float64(b.Events) / wall.Seconds(),
		AllocBytes:   alloc,
	}

	for _, shards := range shardCounts {
		var parRep *noise.Report
		wall, alloc := timed(reps, func() {
			rep, err := noise.AnalyzeRaw(context.Background(), trace.BytesReaderAt(raw), int64(len(raw)), opts, shards)
			if err != nil {
				panic(err)
			}
			parRep = rep
		})
		if !reflect.DeepEqual(seqRep, parRep) {
			b.Identical = false
		}
		b.Parallel = append(b.Parallel, PipelineShard{
			Shards: shards,
			PipelinePhase: PipelinePhase{
				WallNS:       wall.Nanoseconds(),
				EventsPerSec: float64(b.Events) / wall.Seconds(),
				AllocBytes:   alloc,
			},
			Speedup: float64(b.Sequential.WallNS) / float64(wall.Nanoseconds()),
		})
	}
	return b
}

// Render formats the benchmark as the text table noisebench prints.
func (b *PipelineBench) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "analysis pipeline: %d events, %d CPUs, %.1f MiB trace, GOMAXPROCS=%d, best of %d\n",
		b.Events, b.CPUs, float64(b.TraceBytes)/(1<<20), b.GoMaxProcs, b.Reps)
	fmt.Fprintf(&sb, "  %-12s %10s %14s %12s %8s\n", "config", "wall", "events/sec", "alloc", "speedup")
	fmt.Fprintf(&sb, "  %-12s %10s %14.0f %12d %8s\n", "sequential",
		time.Duration(b.Sequential.WallNS), b.Sequential.EventsPerSec, b.Sequential.AllocBytes, "1.00x")
	for _, p := range b.Parallel {
		fmt.Fprintf(&sb, "  %-12s %10s %14.0f %12d %7.2fx\n", fmt.Sprintf("%d-shard", p.Shards),
			time.Duration(p.WallNS), p.EventsPerSec, p.AllocBytes, p.Speedup)
	}
	if !b.Identical {
		sb.WriteString("  WARNING: parallel report diverged from sequential baseline\n")
	}
	return sb.String()
}
