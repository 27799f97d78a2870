// Package tracetool implements the trace-manipulation operations behind
// cmd/tracetool, in the spirit of babeltrace for LTTng traces: textual
// dumps, filtering by CPU/event/time, format conversion, merging of
// per-node traces, and quick statistics.
package tracetool

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"osnoise/internal/trace"
)

// Dump writes a human-readable line per event:
//
//	[   1.234567890] cpu0 softirq_entry run_timer_softirq
//
// limit > 0 caps the number of lines.
func Dump(w io.Writer, tr *trace.Trace, limit int) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for i, ev := range tr.Events {
		if limit > 0 && i >= limit {
			fmt.Fprintf(bw, "... (%d more events)\n", len(tr.Events)-limit)
			break
		}
		detail := describe(ev)
		if _, err := fmt.Fprintf(bw, "[%14.9f] cpu%-2d %-20s %s\n",
			float64(ev.TS)/1e9, ev.CPU, ev.ID, detail); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// describe renders the event arguments with their semantic names.
func describe(ev trace.Event) string {
	switch ev.ID {
	case trace.EvIRQEntry, trace.EvIRQExit:
		return trace.IRQName(ev.Arg1)
	case trace.EvSoftIRQEntry, trace.EvSoftIRQExit, trace.EvSoftIRQRaise,
		trace.EvTaskletEntry, trace.EvTaskletExit:
		return trace.SoftIRQName(ev.Arg1)
	case trace.EvTrapEntry, trace.EvTrapExit:
		if ev.Arg1 == trace.TrapPageFault {
			return "page_fault"
		}
		return fmt.Sprintf("trap %d", ev.Arg1)
	case trace.EvSchedSwitch:
		return fmt.Sprintf("prev=%d next=%d prev_state=%d", ev.Arg1, ev.Arg2, ev.Arg3)
	case trace.EvSchedWakeup:
		return fmt.Sprintf("pid=%d cpu=%d", ev.Arg1, ev.Arg2)
	case trace.EvSchedMigrate:
		return fmt.Sprintf("pid=%d %d->%d", ev.Arg1, ev.Arg2, ev.Arg3)
	case trace.EvSyscallEntry, trace.EvSyscallExit:
		return fmt.Sprintf("nr=%d", ev.Arg1)
	default:
		if ev.Arg1 != 0 || ev.Arg2 != 0 || ev.Arg3 != 0 {
			return fmt.Sprintf("args=(%d,%d,%d)", ev.Arg1, ev.Arg2, ev.Arg3)
		}
		return ""
	}
}

// Filter describes a trace selection.
type Filter struct {
	CPU    int32 // -1 = all
	FromNS int64
	ToNS   int64 // 0 = end
	// Names restricts to events whose ID.String() matches one of the
	// comma-separated names (empty = all).
	Names []string
}

// Apply returns a new trace containing only matching events.
func (f Filter) Apply(tr *trace.Trace) *trace.Trace {
	nameSet := map[string]bool{}
	for _, n := range f.Names {
		n = strings.TrimSpace(n)
		if n != "" {
			nameSet[n] = true
		}
	}
	return tr.Filter(func(ev trace.Event) bool {
		if f.CPU >= 0 && ev.CPU != f.CPU {
			return false
		}
		if ev.TS < f.FromNS {
			return false
		}
		if f.ToNS > 0 && ev.TS > f.ToNS {
			return false
		}
		if len(nameSet) > 0 && !nameSet[ev.ID.String()] {
			return false
		}
		return true
	})
}

// Merge combines multiple traces (e.g. per-node captures) into one,
// remapping each input's CPUs onto a disjoint range and merging the
// inputs into collection order (trace.MergeRuns): by timestamp, then
// remapped CPU, then input order. The inputs must share a time base.
func Merge(traces ...*trace.Trace) *trace.Trace {
	out := &trace.Trace{}
	runs := make([][]trace.Event, len(traces))
	base := int32(0)
	for i, tr := range traces {
		run := make([]trace.Event, len(tr.Events))
		for j, ev := range tr.Events {
			ev.CPU += base
			run[j] = ev
		}
		runs[i] = run
		out.CPUs += tr.CPUs
		out.Lost += tr.Lost
		// Process tables concatenate; pids may collide across nodes
		// (each node numbers independently) — per-CPU statistics stay
		// exact, per-pid attribution is per-node only.
		out.Procs = append(out.Procs, tr.Procs...)
		base += int32(tr.CPUs)
	}
	out.Events = trace.MergeRuns(runs)
	return out
}

// Stats summarises a trace: event counts per ID and per CPU.
type Stats struct {
	Total   int
	Span    float64 // seconds
	PerID   map[trace.ID]int
	PerCPU  map[int32]int
	Lost    uint64
	Dropped int
}

// Stat computes trace statistics.
func Stat(tr *trace.Trace) Stats {
	s := Stats{
		Total:  len(tr.Events),
		Span:   tr.DurationSeconds(),
		PerID:  make(map[trace.ID]int),
		PerCPU: make(map[int32]int),
		Lost:   tr.Lost,
	}
	for _, ev := range tr.Events {
		s.PerID[ev.ID]++
		s.PerCPU[ev.CPU]++
	}
	return s
}

// Render writes the statistics as text.
func (s Stats) Render(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%d events over %.3f s (%d lost)\n", s.Total, s.Span, s.Lost)
	ids := make([]trace.ID, 0, len(s.PerID))
	for id := range s.PerID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return s.PerID[ids[i]] > s.PerID[ids[j]] })
	for _, id := range ids {
		fmt.Fprintf(bw, "  %-22s %8d\n", id, s.PerID[id])
	}
	cpus := make([]int32, 0, len(s.PerCPU))
	for cpu := range s.PerCPU {
		cpus = append(cpus, cpu)
	}
	sort.Slice(cpus, func(i, j int) bool { return cpus[i] < cpus[j] })
	for _, cpu := range cpus {
		fmt.Fprintf(bw, "  cpu%-3d %8d\n", cpu, s.PerCPU[cpu])
	}
	return bw.Flush()
}
