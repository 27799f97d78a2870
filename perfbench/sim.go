package main

import (
	"fmt"
	"time"

	"osnoise/internal/noise"
	"osnoise/internal/sim"
	"osnoise/internal/trace"
	"osnoise/internal/workload"
)

// simRef is one profile's reference answer, taken in set-up.
type simRef struct {
	events  int
	noiseNS int64
}

// simSequoia is the experiment harness's inner loop: each Sequoia
// profile simulated and traced at a fixed virtual duration and seed,
// then analysed by the sequential Analyze.
type simSequoia struct {
	seed     uint64
	duration sim.Duration
	reps     int
	profiles []*workload.Profile
	ref      []simRef
}

func setupSim(seed int64, sz size) (instance, error) {
	s := &simSequoia{seed: uint64(seed), duration: sz.simDuration, reps: sz.probeReps, profiles: workload.Sequoia()}
	if len(s.profiles) != len(sequoiaNames) {
		return nil, fmt.Errorf("workload.Sequoia returned %d profiles, want %d", len(s.profiles), len(sequoiaNames))
	}
	for i, p := range s.profiles {
		if p.Name != sequoiaNames[i] {
			return nil, fmt.Errorf("Sequoia profile %d is %s, want %s", i, p.Name, sequoiaNames[i])
		}
		tr, rep := s.execute(p, nil, 0, 0)
		s.ref = append(s.ref, simRef{events: len(tr.Events), noiseNS: rep.TotalNoiseNS})
	}
	return s, nil
}

// execute simulates one profile and analyses its trace, recording a
// span for each step when rec is non-nil.
func (s *simSequoia) execute(p *workload.Profile, rec *recorder, op int64, parent int) (*trace.Trace, *noise.Report) {
	id := rec.start("workload.New+Execute/"+p.Name, op, parent)
	run := workload.New(p, workload.Options{Duration: s.duration, Seed: s.seed})
	tr := run.Execute()
	rec.finish(id)
	id = rec.start("noise.Analyze/"+p.Name, op, parent)
	rep := noise.Analyze(tr, run.AnalysisOptions())
	rec.finish(id)
	return tr, rep
}

func (s *simSequoia) measure(d time.Duration, rec *recorder) measurement {
	m := measurement{tailQ: 0.9}
	a0 := heapAllocs()
	m.closed = runClosedLoop(d, 1, func(i int) float64 {
		root := rec.start("bench.pass", int64(i), 0)
		var events float64
		for j, p := range s.profiles {
			tr, rep := s.execute(p, rec, int64(i), root)
			events += float64(len(tr.Events))
			m.attempted++
			if len(tr.Events) != s.ref[j].events || rep.TotalNoiseNS != s.ref[j].noiseNS {
				m.failed++
			}
		}
		rec.finish(root)
		return events
	})
	m.allocBytes = heapAllocs() - a0
	m.latency = m.closed.Time
	return m
}

func (s *simSequoia) layers(rec *recorder, loop []span, m *measurement) map[string]float64 {
	out := map[string]float64{"workload.alloc_bytes": float64(m.allocBytes) / float64(max(len(m.latency), 1))}
	op := int64(1 << 40)
	var traced, untraced float64
	for i, p := range s.profiles {
		out["workload.execute_ms."+p.Name] = median(durationsOf(loop, "workload.New+Execute/"+p.Name))
		out["noise.analyze_ms."+p.Name] = median(durationsOf(loop, "noise.Analyze/"+p.Name))
		out["trace.events."+p.Name] = float64(s.ref[i].events)
		out["workload.execute_untraced_ms."+p.Name], _ = probe(rec, &op, "workload.New+Execute/untraced/"+p.Name, s.reps, func() {
			workload.New(p, workload.Options{Duration: s.duration, Seed: s.seed, NoTrace: true}).Execute()
		})
		traced += out["workload.execute_ms."+p.Name]
		untraced += out["workload.execute_untraced_ms."+p.Name]
	}
	if untraced > 0 {
		out["trace.session_overhead_pct"] = 100 * (traced - untraced) / untraced
	}
	return out
}

// check runs one more pass outside the timed loop and compares each
// profile's event count and noise total with the set-up reference: the
// simulator and the analysis must be deterministic.
func (s *simSequoia) check() (int, []string) {
	var failures []string
	for i, p := range s.profiles {
		tr, rep := s.execute(p, nil, 0, 0)
		if len(tr.Events) != s.ref[i].events || rep.TotalNoiseNS != s.ref[i].noiseNS {
			failures = append(failures, fmt.Sprintf("sim: %s: %d events, %d ns noise; set-up reference %d events, %d ns",
				p.Name, len(tr.Events), rep.TotalNoiseNS, s.ref[i].events, s.ref[i].noiseNS))
		}
	}
	return len(s.profiles), failures
}
