// Command perfbench is the repository's benchmark. It builds one
// seeded workload's inputs, measures the program on them for a fixed
// time, checks every output, and prints the end-to-end metrics of an
// untraced run (-trace 0) or the per-layer metrics of a traced run
// (-trace 1). The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first:
//
//	bash perfbench/run.sh --workload offline-amg --seed 1 --seconds 20 --trace 0
//
// README.md in this directory lists the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	seed     int64
	duration time.Duration
	traced   bool
	sz       size
	root     string // module root, hashed to identify the code measured
	spansDir string // where a traced run writes its spans
}

// result is one workload's outcome.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   map[string]float64
	units     map[string]string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "offline-amg, ingest-zipf, sim-sequoia, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long one run measures")
	traceFlag := fs.Int("trace", 0, "1 runs traced and prints per-layer metrics; 0 prints end-to-end metrics")
	root := fs.String("root", ".", "module root whose sources identify the code measured")
	spansDir := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory for a traced run's span file")
	tiny := fs.Bool("tiny", false, "tiny inputs, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		traced:   *traceFlag == 1,
		sz:       fullSize,
		root:     *root,
		spansDir: *spansDir,
	}
	if *tiny {
		cfg.sz = tinySize
	}
	defs := workloads
	if *name != "all" {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		defs = []workloadDef{w}
	}

	var results []result
	for _, w := range defs {
		res, err := runWorkload(w, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 2
		}
		results = append(results, res)
	}
	final := results[0]
	if len(results) > 1 {
		final = merge(defs, results)
	}
	if err := printJSON(stdout, final); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if !final.correct {
		return 1
	}
	return 0
}

// runWorkload sets w up several times, measures it, runs the probes
// when traced, checks the outputs, and prints a human-readable table.
func runWorkload(w workloadDef, cfg config, out io.Writer) (result, error) {
	host := currentHost(cfg.root)
	noiseBefore := hostNoisePct(ftqWindow)

	var inst instance
	setups := make([]float64, cfg.sz.setupReps)
	for i := range setups {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg.seed, cfg.sz)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	res := result{metrics: make(map[string]float64), units: make(map[string]string)}
	var m measurement
	var layerVals, overhead map[string]float64
	var spans []span
	runtime.GC()
	if cfg.traced {
		m, layerVals, overhead, spans = measureTraced(inst, cfg.duration)
	} else {
		m = inst.measure(cfg.duration, nil)
	}
	noiseAfter := hostNoisePct(ftqWindow)
	checked, failures := inst.check()

	res.attempted = m.attempted + checked
	res.failed = m.failed + len(failures)
	res.correct = res.failed == 0

	fig := m.figures()
	fig["setup_s"] = median(setups)
	lat := sortedCopy(durationsMS(m.latency))
	tailP, _, tailOK := tailPercentile(lat)

	fmt.Fprintf(out, "# perfbench %s seed=%d seconds=%g trace=%v\n", w.name, cfg.seed, cfg.duration.Seconds(), cfg.traced)
	fmt.Fprintf(out, "# why: %s\n", w.why)
	fmt.Fprintf(out, "# host: GOMAXPROCS=%d nproc=%d %s source=%s ftq_noise before=%.3f%% after=%.3f%%\n",
		host.GoMaxProcs, host.NumCPU, host.GoVersion, host.Source, noiseBefore, noiseAfter)
	fmt.Fprintf(out, "# setup_s: median of %d set-ups %v\n", len(setups), setups)
	fmt.Fprintf(out, "# latency_ms: n=%d; latency_ms.tail reports p%g", len(lat), 100*m.tailQ)
	if !tailOK || tailP < m.tailQ {
		fmt.Fprintf(out, ", WARNING: fewer than %d samples beyond it", minBeyond)
	}
	fmt.Fprintf(out, "\n# latency_ms pooled: p25=%.4f p50=%.4f p75=%.4f p90=%.4f p99=%.4f max=%.4f\n",
		quantile(lat, 0.25), quantile(lat, 0.5), quantile(lat, 0.75), quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 1))
	fmt.Fprintf(out, "# slices: latency p50 %.4g ms; events/s %.4g over %d closed-loop operations\n",
		sliceQuantiles(durationsMS(m.latency), 0.5), m.closed.sliceThroughputs(), len(m.closed.Time))
	for _, f := range failures {
		fmt.Fprintf(out, "# FAILED CHECK: %s\n", f)
	}
	if m.failed > 0 {
		fmt.Fprintf(out, "# FAILED: %d of %d timed operations answered wrongly\n", m.failed, m.attempted)
	}

	if !cfg.traced {
		for _, d := range endToEnd {
			res.metrics[d.Name] = fig[d.Name]
			res.units[d.Name] = d.Unit
		}
		printTable(out, "end-to-end", endToEnd, res.metrics, nil)
		return res, nil
	}

	layerVals["host.ftq_noise_pct_before"] = noiseBefore
	layerVals["host.ftq_noise_pct_after"] = noiseAfter
	layerVals["host.ftq_noise_pct"] = (noiseBefore + noiseAfter) / 2
	layerVals["host.gomaxprocs"] = float64(host.GoMaxProcs)
	layerVals["host.nproc"] = float64(host.NumCPU)
	layerVals["failed_ratio"] = float64(res.failed) / float64(max(res.attempted, 1))
	layerVals["sampled_ratio"] = float64(m.sampled) / float64(max(m.attempted, 1))
	layerVals["setup_s.samples"] = float64(len(setups))
	layerVals["latency_ms.samples"] = float64(len(lat))
	layerVals["latency_ms.tail"] = quantile(lat, m.tailQ)
	layerVals["latency_ms.tail_pct"] = 100 * m.tailQ
	if tailOK {
		layerVals["latency_ms.supported_pct"] = 100 * tailP
	}
	for _, d := range perLayer {
		v := layerVals[d.Name] // 0 for a probe this workload does not run
		if math.IsNaN(v) {
			v = 0 // a probe that took no samples, such as no flush in a short run
		}
		res.metrics[d.Name] = v
		res.units[d.Name] = d.Unit
	}
	printTable(out, "per-layer (traced run)", perLayer, res.metrics, nil)
	printTable(out, "tracing overhead: traced minus untraced", endToEnd[1:], overhead, fig)

	path, err := writeSpans(cfg, w.name, host, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "# spans: %d written to %s\n", len(spans), path)
	return res, nil
}

// measureTraced measures inst untraced for half of d and traced for the
// other half, then runs its per-layer probes. It returns the traced
// measurement (counting the untraced half's operations as attempted
// too), the per-layer values, the tracing overhead on each end-to-end
// metric, and every span recorded.
func measureTraced(inst instance, d time.Duration) (measurement, map[string]float64, map[string]float64, []span) {
	untraced := inst.measure(d/2, nil)
	runtime.GC()
	rec := newRecorder()
	g0 := readGC()
	m := inst.measure(d/2, rec)
	g1 := readGC()
	loop := rec.snapshot()
	layerVals := inst.layers(rec, loop, &m)
	layerVals["runtime.gc_cycles"] = float64(g1.cycles - g0.cycles)
	layerVals["runtime.gc_pause_ms"] = float64(g1.pauseNS-g0.pauseNS) / 1e6

	ops := 0
	for i := range loop {
		if loop[i].Parent == 0 && loop[i].layer() == "bench" {
			ops++
		}
	}
	self := selfTimes(loop)
	for _, l := range selfLayers {
		layerVals[l+".self_ms"] = float64(self[l]) / 1e6 / float64(max(ops, 1))
	}

	tf, uf := m.figures(), untraced.figures()
	overhead := make(map[string]float64)
	for _, def := range endToEnd[1:] { // set-up is never traced
		overhead[def.Name] = tf[def.Name] - uf[def.Name]
		layerVals["trace_overhead."+def.Name] = overhead[def.Name]
	}
	m.attempted += untraced.attempted
	m.failed += untraced.failed
	m.sampled += untraced.sampled
	return m, layerVals, overhead, rec.snapshot()
}

// printTable prints name, value and unit rows as comment lines; with
// base non-nil it also prints each row's share of base.
func printTable(out io.Writer, title string, defs []metricDef, vals, base map[string]float64) {
	fmt.Fprintf(out, "# -- %s\n", title)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			continue
		}
		if base != nil && base[d.Name] != 0 {
			fmt.Fprintf(out, "#   %-40s %16.6g %-9s (%+.1f%% of traced)\n", d.Name, v, d.Unit, 100*v/base[d.Name])
			continue
		}
		fmt.Fprintf(out, "#   %-40s %16.6g %s\n", d.Name, v, d.Unit)
	}
}

// writeSpans stores a traced run's spans, with the host they were
// recorded on, as JSON.
func writeSpans(cfg config, workload string, host hostInfo, spans []span) (string, error) {
	if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", workload, cfg.seed))
	b, err := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Host     hostInfo `json:"host"`
		Spans    []span   `json:"spans"`
	}{workload, cfg.seed, host, spans})
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}

// merge folds the results of several workloads into one, prefixing
// each metric with its workload's name.
func merge(defs []workloadDef, results []result) result {
	out := result{correct: true, metrics: make(map[string]float64), units: make(map[string]string)}
	for i, r := range results {
		out.correct = out.correct && r.correct
		out.attempted += r.attempted
		out.failed += r.failed
		for k, v := range r.metrics {
			out.metrics[defs[i].name+"."+k] = v
			out.units[defs[i].name+"."+k] = r.units[k]
		}
	}
	return out
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printJSON prints the result line the driver reads.
func printJSON(out io.Writer, r result) error {
	ms := make(map[string]jsonMetric, len(r.metrics))
	for k, v := range r.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no NaN; an empty sample reads 0
		}
		ms[k] = jsonMetric{Value: v, Unit: r.units[k]}
	}
	b, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, strings.TrimSpace(string(b)))
	return err
}
