package trace

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// sortByTSCPU is the oracle for collection order: a whole-trace stable
// sort by (TS, CPU). MergeRuns must reproduce it exactly.
func sortByTSCPU(evs []Event) {
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		return a.CPU < b.CPU
	})
}

// oracleCollect flushes s after the events already drained and
// stable-sorts the concatenation.
func oracleCollect(s *Session, drained []Event) *Trace {
	s.Stop()
	tr := &Trace{CPUs: s.cfg.CPUs, Lost: s.Lost(), Procs: s.Processes()}
	tr.Events = drained
	for _, r := range s.rings {
		tr.Events = r.Flush(tr.Events)
	}
	sortByTSCPU(tr.Events)
	return tr
}

// collectorOps replays fuzz bytes against a set of sessions. The first
// byte picks the CPU count (1–4); each following pair is one operation:
// a first byte of 0xF0 or above drains, anything else emits on CPU
// b0 % (CPUs+1) — one past the last CPU exercises the out-of-range
// drop — with the timestamp moved by the signed high nibble of b1
// (−8…7, so timestamps repeat and go backwards) and the tracepoint
// chosen by its low nibble. Arg1 numbers the emits, so any reordering
// of equal keys shows in the comparison.
type collectorOps struct {
	cpus int
	ops  [][2]byte
}

func decodeCollectorOps(data []byte) collectorOps {
	if len(data) == 0 {
		return collectorOps{cpus: 1}
	}
	c := collectorOps{cpus: 1 + int(data[0]%4)}
	for i := 1; i+1 < len(data); i += 2 {
		c.ops = append(c.ops, [2]byte{data[i], data[i+1]})
	}
	return c
}

// run drives a fresh session through the operations, calling drain at
// each drain op, and returns the session.
func (c collectorOps) run(drain func(*Session)) *Session {
	s := NewSession(Config{CPUs: c.cpus, SubBufs: 2, SubBufLen: 4, Mode: Discard})
	s.Start()
	s.RegisterProcess(ProcInfo{PID: 7, Name: "app", Kind: ProcApp})
	ts := int64(1000)
	for n, op := range c.ops {
		if op[0] >= 0xF0 {
			drain(s)
			continue
		}
		ts += int64(int8(op[1]) >> 4)
		s.Emit(Event{
			TS:   ts,
			CPU:  int32(int(op[0]) % (c.cpus + 1)),
			ID:   ID(1 + int(op[1]&0x0F)%(NumIDs-1)),
			Arg1: int64(n),
		})
	}
	return s
}

func sameTrace(t *testing.T, what string, got, want *Trace) {
	t.Helper()
	if got.CPUs != want.CPUs || got.Lost != want.Lost {
		t.Fatalf("%s: CPUs %d lost %d, want CPUs %d lost %d", what, got.CPUs, got.Lost, want.CPUs, want.Lost)
	}
	if !slices.Equal(got.Events, want.Events) {
		t.Fatalf("%s: events differ\n got %v\nwant %v", what, got.Events, want.Events)
	}
	if !slices.Equal(got.Procs, want.Procs) {
		t.Fatalf("%s: procs %v, want %v", what, got.Procs, want.Procs)
	}
}

// checkCollectorOrder asserts that Collector.Finalize and Session.Collect
// return exactly the oracle's trace for the operations in data, and that
// a second Finalize returns an empty trace.
func checkCollectorOrder(t *testing.T, data []byte) {
	ops := decodeCollectorOps(data)

	var c *Collector
	s := ops.run(func(s *Session) {
		if c == nil {
			c = NewCollector(s)
		}
		c.Drain()
	})
	if c == nil {
		c = NewCollector(s)
	}
	got := c.Finalize()

	var drained []Event
	twin := ops.run(func(s *Session) {
		for cpu := 0; cpu < s.cfg.CPUs; cpu++ {
			drained = s.DrainCPU(cpu, drained)
		}
	})
	sameTrace(t, "Finalize", got, oracleCollect(twin, drained))

	again := c.Finalize()
	if len(again.Events) != 0 {
		t.Fatalf("second Finalize returned %d events, want none", len(again.Events))
	}

	// Collect never drains: both sides skip the drain ops, so the
	// rings lose the same events.
	noDrain := func(*Session) {}
	sameTrace(t, "Collect", ops.run(noDrain).Collect(), oracleCollect(ops.run(noDrain), nil))
}

// collectorSeeds is the checked-in seed corpus of FuzzCollectorOrder
// (testdata/fuzz/FuzzCollectorOrder): cross-CPU ties, backward
// timestamps, empty CPUs, Discard-mode loss, drains between emits, and
// an out-of-range CPU.
func collectorSeeds() [][]byte {
	const drain = 0xFF
	return [][]byte{
		// Three CPUs emitting at one timestamp, highest CPU first.
		{2, 2, 0x00, 1, 0x01, 0, 0x02, 2, 0x03, 1, 0x04, 0, 0x05},
		// Timestamps going backwards on one CPU, ties across two.
		{1, 0, 0x30, 0, 0x80, 1, 0x00, 0, 0x10, 1, 0xF0, 0, 0x00},
		// Four CPUs, only CPUs 1 and 3 used.
		{3, 3, 0x10, 1, 0x10, 3, 0x00, 1, 0x10, 3, 0xE0, 1, 0x20},
		// Twelve emits on CPU 0 into eight slots: four are lost.
		{0, 0, 0x10, 0, 0x10, 0, 0x10, 0, 0x10, 0, 0x10, 0, 0x10,
			0, 0x10, 0, 0x10, 0, 0x10, 0, 0x10, 0, 0x10, 0, 0x10},
		// Drains between emits on two CPUs, with backward steps.
		{1, 0, 0x10, 1, 0x00, 0, 0x10, 1, 0x00, 0, 0x10, 1, 0x00,
			0, 0x10, 1, 0x00, drain, 0, 0, 0xC0, 1, 0x00, 0, 0x10,
			drain, 0, 1, 0x10, 0, 0x90, 1, 0x00},
		// CPU 2 of a two-CPU session: dropped and counted as lost.
		{1, 2, 0x10, 0, 0x00, 1, 0x00},
		{},
	}
}

// FuzzCollectorOrder checks the per-CPU merge behind Collector.Finalize
// and Session.Collect against the whole-trace stable sort, on a ring
// small enough (2 sub-buffers of 4 slots) that drains and losses happen
// within a few operations.
func FuzzCollectorOrder(f *testing.F) {
	for _, in := range collectorSeeds() {
		f.Add(in)
	}
	f.Fuzz(checkCollectorOrder)
}

// TestCollectorOrderRandom runs the fuzz property over a fixed set of
// pseudo-random operation sequences, so the plain test run covers far
// more than the seed corpus.
func TestCollectorOrderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 1+2*rng.Intn(40))
		rng.Read(data)
		checkCollectorOrder(t, data)
	}
}

// MergeRuns must equal the stable sort of the concatenation for any
// split into runs, not only per-CPU ones: tracetool.Merge passes whole
// traces whose runs mix CPUs, and a run may be out of order.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		runs := make([][]Event, rng.Intn(6))
		var concat []Event
		n := 0
		for r := range runs {
			ts := int64(rng.Intn(4))
			for j := rng.Intn(12); j > 0; j-- {
				if rng.Intn(3) == 0 {
					ts -= int64(rng.Intn(3))
				} else {
					ts += int64(rng.Intn(3))
				}
				ev := Event{TS: ts, CPU: int32(rng.Intn(3)), Arg1: int64(n)}
				n++
				runs[r] = append(runs[r], ev)
				concat = append(concat, ev)
			}
		}
		sortByTSCPU(concat)
		got := MergeRuns(runs)
		if !slices.Equal(got, concat) || len(got) != cap(got) {
			t.Fatalf("case %d: MergeRuns\n got %v (cap %d)\nwant %v", i, got, cap(got), concat)
		}
	}
}

// BenchmarkCollectorFinalize measures the collection phase alone: eight
// CPUs of ~7.5k events each, drained in sub-buffer chunks while the run
// goes on, with every timestamp shared by several CPUs. Emission and
// draining run with the timer stopped; ns/op and B/op are Finalize's.
func BenchmarkCollectorFinalize(b *testing.B) {
	const cpus, perCPU = 8, 7500
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := NewSession(Config{CPUs: cpus, SubBufs: 8, SubBufLen: 1024})
		s.Start()
		c := NewCollector(s)
		for k := 0; k < perCPU; k++ {
			for cpu := 0; cpu < cpus; cpu++ {
				// Pairs of CPUs share each timestamp.
				s.Emit(Event{TS: int64(k)*100 + int64(cpu/2), CPU: int32(cpu), ID: EvIRQEntry})
			}
			if k%2048 == 2047 {
				c.Drain()
			}
		}
		b.StartTimer()
		if tr := c.Finalize(); len(tr.Events) != cpus*perCPU {
			b.Fatalf("finalized %d events, want %d", len(tr.Events), cpus*perCPU)
		}
	}
}
