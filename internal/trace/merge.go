package trace

import "slices"

// compareEvents is the trace's collection order: timestamp, then CPU.
// Events equal under it keep their emission order; the sorts and the
// merge below are all stable.
func compareEvents(a, b Event) int {
	switch {
	case a.TS < b.TS:
		return -1
	case a.TS > b.TS:
		return 1
	case a.CPU < b.CPU:
		return -1
	case a.CPU > b.CPU:
		return 1
	}
	return 0
}

// MergeRuns returns the events of runs in collection order — by
// timestamp, then CPU — with events equal in both kept in the order of
// the concatenation runs[0], runs[1], …. That is exactly what a stable
// sort of the concatenation by (TS, CPU) returns; MergeRuns reaches it
// by merging. A run already in (TS, CPU) order — a per-CPU ring
// stream, or a trace read back from a file — costs one linear check;
// any other run is stable-sorted in place first, so timestamps that go
// backwards within a run come out in the same order as under the sort.
//
// The result is a new slice of exactly the total length (nil when
// every run is empty). The runs themselves are left sorted.
func MergeRuns(runs [][]Event) []Event {
	total := 0
	h := make(mergeHeap, 0, len(runs))
	for i, r := range runs {
		if len(r) == 0 {
			continue
		}
		if !slices.IsSortedFunc(r, compareEvents) {
			slices.SortStableFunc(r, compareEvents)
		}
		total += len(r)
		h = append(h, mergeRun{rest: r, idx: i})
	}
	if total == 0 {
		return nil
	}
	out := make([]Event, 0, total)
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 1 {
		// The root's head comes next. Copy its whole block of events
		// that also precede the runner-up — the smaller of the root's
		// children — in one append: at least its run of equal (TS, CPU)
		// keys, and on a quiet CPU much more.
		top := &h[0]
		next := &h[1]
		if len(h) > 2 && h.less(2, 1) {
			next = &h[2]
		}
		k := 1
		for k < len(top.rest) && precedes(&top.rest[k], top.idx, &next.rest[0], next.idx) {
			k++
		}
		out = append(out, top.rest[:k]...)
		top.rest = top.rest[k:]
		if len(top.rest) == 0 {
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
		}
		h.down(0)
	}
	return append(out, h[0].rest...)
}

// mergeRun is one input run's unconsumed tail and its position in the
// concatenation, which breaks (TS, CPU) ties between runs.
type mergeRun struct {
	rest []Event
	idx  int
}

// mergeHeap is a binary min-heap of non-empty runs keyed by their head
// event; no two runs compare equal, because idx is unique.
type mergeHeap []mergeRun

// precedes reports whether event a of run ai comes before event b of
// run bi in the merged output. It is compareEvents plus the run tie-break,
// written on pointers: built on compareEvents' by-value events, the
// merge ran about 1.5× slower in BenchmarkCollectorFinalize.
func precedes(a *Event, ai int, b *Event, bi int) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.CPU != b.CPU {
		return a.CPU < b.CPU
	}
	return ai < bi
}

func (h mergeHeap) less(i, j int) bool {
	return precedes(&h[i].rest[0], h[i].idx, &h[j].rest[0], h[j].idx)
}

func (h mergeHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if !h.less(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
