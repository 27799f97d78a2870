package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentilePicksHighestSupported(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 0.5, true},
		{99, 0.5, true},
		{100, 0.9, true},
		{999, 0.9, true},
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		vals := make([]float64, tc.n)
		for i := range vals {
			vals[i] = float64(i)
		}
		p, v, ok := tailPercentile(vals)
		if ok != tc.ok || p != tc.want {
			t.Errorf("n=%d: got p=%v ok=%v, want p=%v ok=%v", tc.n, p, ok, tc.want, tc.ok)
			continue
		}
		if ok {
			if beyond := tc.n - 1 - int(v); beyond < minBeyond-1 {
				t.Errorf("n=%d p=%v: value %v leaves %d samples beyond", tc.n, p, v, beyond)
			}
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	vals := []float64{1, 2, 3, 4}
	for q, want := range map[float64]float64{0: 1, 1: 4, 0.5: 2.5, 1.0 / 3: 2} {
		if got := quantile(vals, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// Twenty operations due 1 ms apart, each taking 5 ms, on one
	// caller: the generator falls behind, and every operation's latency
	// must include the time it waited to be sent.
	const n, service = 20, 5 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	res := runOpenLoop(due, time.Second, 1, func(int) { time.Sleep(service) })
	if res.Issued != n {
		t.Fatalf("issued %d, want %d", res.Issued, n)
	}
	for i := 0; i < n; i++ {
		if res.Latency[i] < res.Lag[i]+service {
			t.Errorf("op %d: latency %v < lag %v + service %v", i, res.Latency[i], res.Lag[i], service)
		}
	}
	if want := time.Duration(n-1) * (service - time.Millisecond); res.Lag[n-1] < want {
		t.Errorf("last op lag %v, want at least %v", res.Lag[n-1], want)
	}

	// Operations past the phase end are not sent.
	if res := runOpenLoop(due, 5*time.Millisecond, 2, func(int) {}); res.Issued != 5 {
		t.Errorf("issued %d before 5ms, want 5", res.Issued)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "bench.pass", ID: 1, Start: 0, End: 100},
		{Name: "router.ingest", ID: 2, Parent: 1, Start: 10, End: 60},
		{Name: "sink.emit", ID: 3, Parent: 1, Start: 40, End: 80}, // overlaps the first child
		{Name: "noise.x", ID: 4, Parent: 2, Start: 20, End: 30},
	}
	got := selfTimes(spans)
	want := map[string]int64{"bench": 30, "router": 40, "sink": 40, "noise": 10}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestIngestInputsAreSeeded(t *testing.T) {
	a, err := setupIngest(7, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupIngest(7, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	c, err := setupIngest(8, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	ia, ib, ic := a.(*ingest), b.(*ingest), c.(*ingest)
	if !reflect.DeepEqual(ia.phaseA, ib.phaseA) || !reflect.DeepEqual(ia.dueA, ib.dueA) || !reflect.DeepEqual(ia.phaseB, ib.phaseB) {
		t.Error("same seed gave different stream schedules")
	}
	for i := range ia.pool {
		if !bytes.Equal(ia.pool[i].raw, ib.pool[i].raw) || ia.pool[i].noiseNS != ib.pool[i].noiseNS {
			t.Errorf("same seed gave a different payload %d", i)
		}
	}
	if reflect.DeepEqual(ia.phaseA, ic.phaseA) {
		t.Error("different seeds gave the same schedule")
	}
	small, large := 0, 0
	for _, s := range ia.phaseA[:2000] {
		if s.payload >= tinySize.poolSmall {
			large++
		} else {
			small++
		}
	}
	if large == 0 || small < large {
		t.Errorf("payload mix: %d small, %d large", small, large)
	}
}

func TestZipfPickerIsSeededAndSkewed(t *testing.T) {
	draw := func(seed int64) []int {
		p := newZipfPicker(rand.New(rand.NewSource(seed)), 64, 1.1)
		out := make([]int, 5000)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a, b := draw(3), draw(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed drew different tenants")
	}
	counts := make([]int, 64)
	for _, x := range a {
		counts[x]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if counts[0] < 10*counts[32] {
		t.Errorf("not skewed: top tenant %d streams, median tenant %d", counts[0], counts[32])
	}
}

// lastJSON runs the command and decodes its final output line.
func lastJSON(t *testing.T, args ...string) (int, map[string]any) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(append(args, "--tiny", "--spans", t.TempDir(), "--root", t.TempDir()), &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not JSON (%v); stderr: %s", args, err, errb.String())
	}
	return code, res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			code, res := lastJSON(t, "--workload", w.name, "--seed", "3", "--seconds", "0.4", "--trace", traced)
			if code != 0 || res["correct"] != true || res["failed"].(float64) != 0 || res["attempted"].(float64) < 1 {
				t.Errorf("%s trace=%s: exit %d, result %v", w.name, traced, code, res)
				continue
			}
			defs := endToEnd
			if traced == "1" {
				defs = perLayer
			}
			metrics := res["metrics"].(map[string]any)
			if len(metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w.name, traced, len(metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := metrics[d.Name].(map[string]any)
				if !ok || m["unit"] != d.Unit {
					t.Errorf("%s trace=%s: metric %s missing or wrong unit: %v", w.name, traced, d.Name, m)
					continue
				}
				if traced == "0" && m["value"].(float64) <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m["value"])
				}
			}
		}
	}
}

func TestUnknownWorkloadFails(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errb); code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q", code, out.String())
	}
}

// TestBenchmarkJSONMatchesCommand keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestBenchmarkJSONMatchesCommand(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %q %q in the command", i, w, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the command", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
