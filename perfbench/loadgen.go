package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// openResult is what an open-loop phase measured.
type openResult struct {
	Issued  int             // operations sent
	Latency []time.Duration // per operation, from its due time to its answer
	Lag     []time.Duration // per operation, how late the generator sent it
}

// runOpenLoop sends operation i at offset due[i] from the phase start,
// for every due[i] below until, whether or not earlier ones have
// answered. callers goroutines share the schedule, so when all are busy
// the next operation leaves late; its latency still counts from its due
// time, and the delay shows as generator lag. due must be ascending.
func runOpenLoop(due []time.Duration, until time.Duration, callers int, op func(i int)) openResult {
	n := 0
	for n < len(due) && due[n] < until {
		n++
	}
	lat := make([]time.Duration, n)
	lag := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if wait := due[i] - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				op(i)
				lat[i] = time.Since(start) - due[i]
				lag[i] = sent - due[i]
			}
		}()
	}
	wg.Wait()
	return openResult{Issued: n, Latency: lat, Lag: lag}
}

// closedResult is what a closed-loop phase measured, per operation in
// issue order.
type closedResult struct {
	Start []time.Duration // offset from the phase start
	Time  []time.Duration // issue to answer
	Work  []float64       // what op returned: events processed
}

// runClosedLoop runs callers goroutines that each issue operation i
// (numbered in issue order) as soon as their previous one answered,
// until the phase has lasted `until`. The last operations may end
// slightly after it. op returns the work the operation did.
func runClosedLoop(until time.Duration, callers int, op func(i int) float64) closedResult {
	type timing struct {
		i           int
		start, time time.Duration
		work        float64
	}
	var next atomic.Int64
	var mu sync.Mutex
	var all []timing
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []timing
			for {
				t0 := time.Since(start)
				if t0 >= until {
					break
				}
				i := int(next.Add(1) - 1)
				w := op(i)
				mine = append(mine, timing{i, t0, time.Since(start) - t0, w})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res := closedResult{
		Start: make([]time.Duration, len(all)),
		Time:  make([]time.Duration, len(all)),
		Work:  make([]float64, len(all)),
	}
	for _, t := range all {
		res.Start[t.i], res.Time[t.i], res.Work[t.i] = t.start, t.time, t.work
	}
	return res
}

// throughput returns work per second: the median, over `slices`
// consecutive slices of the operations in issue order, of each slice's
// work divided by the time from its first start to its last answer.
// Like slicedQuantile, it lets a short burst of host noise move one
// slice and not the run's figure.
func (r *closedResult) throughput() float64 { return median(r.sliceThroughputs()) }

// sliceThroughputs returns each slice's work per second.
func (r *closedResult) sliceThroughputs() []float64 {
	n := len(r.Work)
	if n == 0 {
		return nil
	}
	k := min(slices, n)
	per := make([]float64, k)
	for s := range per {
		lo, hi := s*n/k, (s+1)*n/k
		var work float64
		first, last := r.Start[lo], time.Duration(0)
		for i := lo; i < hi; i++ {
			work += r.Work[i]
			first = min(first, r.Start[i])
			last = max(last, r.Start[i]+r.Time[i])
		}
		per[s] = work / (last - first).Seconds()
	}
	return per
}

// poissonSchedule returns n ascending due offsets of a Poisson arrival
// process at rate per second, drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// zipfPicker draws tenant indexes with seeded Zipf-skewed popularity:
// index k has weight 1/(k+1)^s. The index order is shuffled by the seed
// so the popular tenants differ between seeds.
type zipfPicker struct {
	z    *rand.Zipf
	perm []int
}

func newZipfPicker(rng *rand.Rand, tenants int, s float64) *zipfPicker {
	return &zipfPicker{
		z:    rand.NewZipf(rng, s, 1, uint64(tenants-1)),
		perm: rng.Perm(tenants),
	}
}

func (p *zipfPicker) next() int { return p.perm[p.z.Uint64()] }
