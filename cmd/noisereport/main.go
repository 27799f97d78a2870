// Command noisereport analyses a saved binary trace (produced by
// lttng-noise -trace) offline: the noise breakdown, per-event tables,
// top interruptions, and optional exports — the offline half of the
// LTTNG-NOISE pipeline, usable on traces from other sessions.
//
// Usage:
//
//	noisereport trace.lttn
//	noisereport -top 20 -timeline -paraver out trace.lttn
//
// Exit codes: 0 on success, 1 on operational errors, 2 when the trace
// file is corrupt or exceeds the format limits, 3 when a -timeout
// deadline cancelled the run before it finished.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"

	"osnoise/internal/chart"
	"osnoise/internal/chrometrace"
	"osnoise/internal/export"
	"osnoise/internal/noise"
	"osnoise/internal/paraver"
	"osnoise/internal/trace"
	"osnoise/internal/tracetool"
)

// fatal prints a one-line diagnostic and exits with the documented
// code: 3 for a cancelled run, 2 for corrupt/over-limit trace input,
// 1 for everything else.
func fatal(err error) {
	log.Print(err)
	os.Exit(tracetool.ExitCode(err))
}

// analyze dispatches to the sequential or sharded analyzer; both produce
// bit-identical reports, so the choice is purely about wall-clock time.
// The sequential path honours the budget but has no cancellation points.
func analyze(ctx context.Context, tr *trace.Trace, opts noise.Options, shards int) (*noise.Report, error) {
	if shards == 1 {
		return noise.Analyze(tr, opts), nil
	}
	return noise.AnalyzeParallel(ctx, tr, opts, shards)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("noisereport: ")
	var (
		top       = flag.Int("top", 10, "show the N largest interruptions")
		timeline  = flag.Bool("timeline", false, "print the execution-trace timeline")
		prvPrefix = flag.String("paraver", "", "write <prefix>.prv/.pcf/.row")
		nesting   = flag.Bool("nesting", true, "attribute nested events (disable for ablation)")
		runnable  = flag.Bool("runnable-filter", true, "count noise only while an app is runnable")
		gap       = flag.Int64("gap", 1000, "interruption merge gap in ns")
		fromNS    = flag.Int64("from", 0, "analyse only events at/after this ns timestamp")
		toNS      = flag.Int64("to", 0, "analyse only events at/before this ns timestamp (0 = end)")
		perCPU    = flag.Bool("per-cpu", false, "print per-CPU noise totals")
		chrome    = flag.String("chrome", "", "write a Chrome/Perfetto trace JSON here")
		periods   = flag.Bool("periods", false, "detect periodic noise sources per CPU")
		comps     = flag.Bool("compositions", false, "summarise interruptions by composition")
		jsonOut   = flag.String("json", "", "write the analysis summary as JSON here")
		compare   = flag.String("compare", "", "second trace: print a before/after noise diff")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "decode+analysis shards (1 = sequential)")
		timeout   = flag.Duration("timeout", 0, "cancel the run after this duration (exit code 3)")
		budget    = flag.String("budget", "", "resource caps: events=N,bytes=N,interruptions=N")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		log.Fatal("usage: noisereport [flags] <trace file>")
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	bud, err := tracetool.ParseBudget(*budget)
	if err != nil {
		fatal(err)
	}

	tr, err := tracetool.Load(ctx, flag.Arg(0), *parallel)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace: %d events on %d CPUs, %.3f s, %d lost\n",
		len(tr.Events), tr.CPUs, tr.DurationSeconds(), tr.Lost)

	opts := noise.DefaultOptions()
	opts.AttributeNesting = *nesting
	opts.RunnableFilter = *runnable
	opts.GapNS = *gap
	opts.FromNS = *fromNS
	opts.ToNS = *toNS
	opts.Budget = bud
	rep, err := analyze(ctx, tr, opts, *parallel)
	if err != nil {
		if rep != nil {
			log.Printf("partial result: %d events consumed, %d CPUs finished",
				rep.EventsConsumed, rep.CPUsFinished)
		}
		fatal(err)
	}
	if rep.Incomplete {
		fmt.Printf("(budget reached: analysis covers the first %d events)\n", rep.EventsConsumed)
	}
	if rep.InterruptionsSampled {
		fmt.Printf("(interruption cap reached: showing %d of %d interruptions)\n",
			len(rep.Interruptions), rep.InterruptionsTotal)
	}

	fmt.Println()
	fmt.Print(rep.BreakdownString())
	fmt.Println()
	for k := noise.Key(0); k < noise.NumKeys; k++ {
		if rep.Stats(k).Summary.Count > 0 {
			fmt.Println(rep.TableRow(k))
		}
	}
	if rep.Dropped > 0 {
		fmt.Printf("(%d spans dropped at trace boundaries)\n", rep.Dropped)
	}

	if *comps {
		fmt.Println("\ninterruption compositions (by total noise):")
		for i, cs := range rep.Compositions() {
			if i >= 12 {
				break
			}
			fmt.Printf("  %-55s n=%-7d total=%9.3fms  [%d..%d ns]\n",
				cs.Signature, cs.Count, float64(cs.TotalNS)/1e6, cs.MinNS, cs.MaxNS)
		}
	}
	if *periods {
		fmt.Println("\ndetected periodic noise sources:")
		for cpu := int32(0); cpu < int32(rep.CPUs); cpu++ {
			cands := noise.DetectPeriods(rep, cpu, 1_000_000, 100_000_000, 3)
			for _, cand := range cands {
				fmt.Printf("  cpu%-2d period %8.3f ms  score %.2f  (~%d events)\n",
					cpu, float64(cand.PeriodNS)/1e6, cand.Score, cand.Count)
			}
		}
	}
	if *perCPU {
		fmt.Println("\nper-CPU noise:")
		for cpu, ns := range rep.PerCPUNoise() {
			fmt.Printf("  cpu%-2d %12.3f ms\n", cpu, float64(ns)/1e6)
		}
	}
	if *top > 0 {
		fmt.Printf("\ntop %d interruptions:\n", *top)
		for _, in := range rep.TopInterruptions(*top) {
			fmt.Printf("  cpu%d @ %12.6f s: %s\n", in.CPU, float64(in.Start)/1e9, in.Describe())
		}
	}
	if *timeline {
		first, last := tr.Span()
		fmt.Println()
		fmt.Print(chart.Timeline(rep, first, last, 110))
		fmt.Print(chart.Legend())
	}
	if *compare != "" {
		tr2, err := tracetool.Load(ctx, *compare, *parallel)
		if err != nil {
			fatal(err)
		}
		rep2, err := analyze(ctx, tr2, opts, *parallel)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\ndiff vs %s:\n", *compare)
		fmt.Print(noise.DiffString(rep, rep2))
	}
	if *jsonOut != "" {
		out, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		err = export.WriteReportJSON(out, rep)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("json summary written to %s\n", *jsonOut)
	}
	if *chrome != "" {
		out, err := os.Create(*chrome)
		if err != nil {
			log.Fatal(err)
		}
		err = chrometrace.Export(out, rep)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("chrome trace written to %s (open in ui.perfetto.dev)\n", *chrome)
	}
	if *prvPrefix != "" {
		_, last := tr.Span()
		write := func(path string, fn func(*os.File) error) {
			out, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			err = fn(out)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		write(*prvPrefix+".prv", func(o *os.File) error { return paraver.Export(o, rep, last) })
		write(*prvPrefix+".pcf", func(o *os.File) error { return paraver.ExportPCF(o) })
		write(*prvPrefix+".row", func(o *os.File) error { return paraver.ExportROW(o, rep.CPUs) })
		fmt.Printf("paraver trace written to %s.{prv,pcf,row}\n", *prvPrefix)
	}
}
