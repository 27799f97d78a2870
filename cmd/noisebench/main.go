// Command noisebench regenerates the paper's evaluation: every table
// (I–VI) and figure (1–10), the tracer-overhead measurement and the
// noise-at-scale extensions.
//
// Usage:
//
//	noisebench                         # run everything (20 s virtual runs)
//	noisebench -exp table1,fig4        # selected experiments
//	noisebench -duration 60s -seed 7   # longer runs, different seed
//	noisebench -data out/              # also dump CSV series per experiment
//	noisebench -faults -json results/BENCH_faults.json
//
// Exit codes: 0 on success, 1 on any error, 3 when a -timeout deadline
// cancelled the run before it finished (this command generates its
// traces in memory; it never ingests untrusted trace files).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"osnoise/internal/experiments"
	"osnoise/internal/export"
	"osnoise/internal/sim"
)

// exitCancelled is the documented exit code for runs cut short by the
// -timeout deadline (matches tracetool.ExitCancelled).
const exitCancelled = 3

// fatal prints the error and exits 3 for cancellation, 1 otherwise.
func fatal(err error) {
	log.Print(err)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		os.Exit(exitCancelled)
	}
	os.Exit(1)
}

// mkctx builds the command context: background, or cancelled after the
// -timeout duration. The context lives exactly as long as the process,
// so the timer-held cancel is release enough.
func mkctx(timeout time.Duration) context.Context {
	if timeout <= 0 {
		return context.Background()
	}
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(timeout, cancel)
	return ctx
}

// writeJSON marshals v to path, creating parent directories.
func writeJSON(path string, v any) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runFaults executes the fault-injection benchmark and optionally
// writes the machine-readable result (results/BENCH_faults.json).
func runFaults(ctx context.Context, seed uint64, intervalList, jsonPath string) {
	var intervals []int
	if intervalList != "" {
		for _, s := range strings.Split(intervalList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 0 {
				log.Fatalf("bad -fault-intervals entry %q", s)
			}
			intervals = append(intervals, n)
		}
	}
	b, err := experiments.RunFaultBench(ctx, seed, intervals)
	if err != nil {
		fatal(err)
	}
	fmt.Print(b.Render())
	if jsonPath != "" {
		if err := writeJSON(jsonPath, b); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fault benchmark written to %s\n", jsonPath)
	}
}

// runExperiments executes the selected paper experiments, converting a
// cancelled simulation (raised as *experiments.RunError) into an error.
func runExperiments(c *experiments.Context, exps string) (results []*experiments.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*experiments.RunError)
			if !ok {
				panic(r)
			}
			results, err = nil, re
		}
	}()
	if exps == "all" {
		return experiments.All(c), nil
	}
	for _, id := range strings.Split(exps, ",") {
		id = strings.TrimSpace(id)
		r := experiments.ByID(c, id)
		if r == nil {
			log.Fatalf("unknown experiment %q (use -list)", id)
		}
		results = append(results, r)
	}
	return results, nil
}

// runPipeline executes the analysis-pipeline benchmark. The result can
// be written as a standalone JSON snapshot (jsonPath), appended to the
// recorded performance trajectory (appendPath), and gated against that
// trajectory's last comparable entry (gatePath/gatePct) — the gate runs
// before the append, so a regressing run never records itself as the
// new baseline.
func runPipeline(events int, shardList string, seed uint64, reps int, jsonPath, appendPath, gatePath string, gatePct float64) {
	var shards []int
	for _, s := range strings.Split(shardList, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			log.Fatalf("bad -pipeline-shards entry %q", s)
		}
		shards = append(shards, n)
	}
	b := experiments.RunPipelineBench(events, shards, seed, reps)
	fmt.Print(b.Render())
	if !b.Identical {
		log.Fatal("parallel analysis diverged from the sequential baseline")
	}
	if gatePath != "" {
		compared, err := experiments.GatePipelineRegression(gatePath, b, gatePct)
		if err != nil {
			log.Fatal(err)
		}
		if compared {
			fmt.Printf("pipeline gate passed (within %.0f%% of last entry in %s)\n", gatePct, gatePath)
		} else {
			fmt.Printf("pipeline gate: no comparable baseline (GOMAXPROCS=%d, events=%d) in %s\n", b.GoMaxProcs, b.Events, gatePath)
		}
	}
	if appendPath != "" {
		if err := experiments.AppendPipelineTrajectory(appendPath, b); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pipeline benchmark appended to %s\n", appendPath)
	}
	if jsonPath != "" {
		if err := writeJSON(jsonPath, b); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pipeline benchmark written to %s\n", jsonPath)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("noisebench: ")
	var (
		exps     = flag.String("exp", "all", "comma-separated experiment ids, or all: "+strings.Join(experiments.IDs(), ","))
		duration = flag.Duration("duration", 20*time.Second, "virtual run length per application")
		ftqDur   = flag.Duration("ftq-duration", 5*time.Second, "virtual FTQ run length")
		seed     = flag.Uint64("seed", 2011, "simulation seed")
		dataDir  = flag.String("data", "", "directory for CSV data dumps")
		list     = flag.Bool("list", false, "list experiment ids and exit")

		pipeline   = flag.Bool("pipeline", false, "benchmark the analysis pipeline instead of the paper experiments")
		pipeEvents = flag.Int("pipeline-events", 1_000_000, "minimum trace size for -pipeline, in events")
		pipeShards = flag.String("pipeline-shards", "1,2,4,8", "comma-separated shard counts for -pipeline")
		pipeReps   = flag.Int("pipeline-reps", 3, "repetitions per -pipeline configuration (best wall kept)")
		pipeAppend = flag.String("pipeline-append", "", "append the -pipeline result to this trajectory file (e.g. results/BENCH_pipeline.json)")
		pipeGate   = flag.String("pipeline-gate", "", "fail if the -pipeline result regresses vs the last comparable entry in this trajectory file")
		pipeGateP  = flag.Float64("pipeline-gate-pct", 10, "regression budget for -pipeline-gate, in percent")
		faults     = flag.Bool("faults", false, "benchmark fault recovery vs checkpoint interval instead of the paper experiments")
		faultIvals = flag.String("fault-intervals", "", "comma-separated checkpoint intervals for -faults (default 0,5,10,25,50,100)")
		jsonOut    = flag.String("json", "", "write the -pipeline/-faults result as JSON here (e.g. results/BENCH_faults.json)")
		timeout    = flag.Duration("timeout", 0, "cancel the run after this duration (exit code 3)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile here")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile here")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}()
	}

	runCtx := mkctx(*timeout)
	if *pipeline {
		runPipeline(*pipeEvents, *pipeShards, *seed, *pipeReps, *jsonOut, *pipeAppend, *pipeGate, *pipeGateP)
		return
	}
	if *faults {
		runFaults(runCtx, *seed, *faultIvals, *jsonOut)
		return
	}

	ctx := experiments.NewContext(sim.Duration((*duration).Nanoseconds()), *seed)
	ctx.FTQDuration = sim.Duration((*ftqDur).Nanoseconds())
	ctx.Ctx = runCtx

	results, err := runExperiments(ctx, *exps)
	if err != nil {
		fatal(err)
	}

	for _, r := range results {
		fmt.Printf("==== %s — %s ====\n\n", r.ID, r.Title)
		fmt.Println(r.Text)
		if *dataDir != "" && len(r.Data) > 0 {
			if err := dumpData(*dataDir, r); err != nil {
				log.Fatal(err)
			}
		}
	}
	if *dataDir != "" {
		fmt.Printf("data series written under %s\n", *dataDir)
	}
}

func dumpData(dir string, r *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := make([]string, 0, len(r.Data))
	for name := range r.Data {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", r.ID, strings.ToLower(name)))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		rows := r.Data[name]
		header := make([]string, 0)
		if len(rows) > 0 {
			for i := range rows[0] {
				header = append(header, fmt.Sprintf("c%d", i))
			}
		}
		err = export.WriteCSV(f, header, rows)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
