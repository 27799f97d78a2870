package trace

import "slices"

// Collector accumulates events from a session during a run, playing the
// role of LTTng's consumer daemon: it periodically drains each per-CPU
// channel's full sub-buffers so the rings can stay small even for long
// traces. Wire its Drain method to a periodic callback (e.g. a virtual
// timer on the simulated node), then call Finalize once at the end.
//
// Drained events stay in one stream per CPU, each in emission order,
// as LTTng keeps one file per channel; Finalize merges the streams
// (MergeRuns) into the trace's collection order — timestamp, then CPU,
// then emission order — instead of sorting the whole trace.
type Collector struct {
	session *Session
	perCPU  [][]Event // drained events, one emission-ordered stream per CPU
}

// NewCollector returns a collector for s.
func NewCollector(s *Session) *Collector {
	return &Collector{session: s, perCPU: make([][]Event, s.cfg.CPUs)}
}

// Drain consumes every fully committed sub-buffer on every CPU.
func (c *Collector) Drain() {
	for cpu := range c.perCPU {
		c.perCPU[cpu] = c.session.DrainCPU(cpu, c.perCPU[cpu])
	}
}

// Len returns the number of events accumulated so far.
func (c *Collector) Len() int {
	n := 0
	for _, evs := range c.perCPU {
		n += len(evs)
	}
	return n
}

// Finalize stops the session, flushes everything remaining (including
// partial sub-buffers), and returns the complete trace in collection
// order: by timestamp, ties broken by CPU and then by emission order.
// On a Discard-mode session a second call returns an empty trace.
func (c *Collector) Finalize() *Trace {
	s := c.session
	s.Stop()
	tr := &Trace{CPUs: s.cfg.CPUs, Lost: s.Lost(), Procs: s.Processes()}
	for cpu, r := range s.rings {
		// Grow once by what the ring still holds, so the flush never
		// doubles a large stream.
		c.perCPU[cpu] = r.Flush(slices.Grow(c.perCPU[cpu], r.pending()))
	}
	tr.Events = MergeRuns(c.perCPU)
	clear(c.perCPU)
	return tr
}
