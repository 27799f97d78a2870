package trace

import (
	"sync"
	"sync/atomic"
)

// Config controls a tracing session.
type Config struct {
	CPUs      int  // number of per-CPU channels
	SubBufs   int  // sub-buffers per channel (power of two)
	SubBufLen int  // slots per sub-buffer (power of two)
	Mode      Mode // Discard or Overwrite
	// Enabled selects the tracepoints to record. Nil enables all.
	Enabled []ID
	// OverheadPerEvent, when non-zero, is the simulated cost in
	// nanoseconds charged to the traced CPU for each recorded event.
	// It lets experiments measure the tracer's own perturbation (the
	// paper reports 0.28 % average overhead).
	OverheadPerEvent int64
}

// DefaultConfig returns a session configuration sized for minutes of
// virtual time on an 8-CPU node.
func DefaultConfig(cpus int) Config {
	return Config{CPUs: cpus, SubBufs: 8, SubBufLen: 4096, Mode: Discard}
}

// Validate checks the session geometry against the format limits,
// returning an ErrLimit-family error describing the first violation.
// Zero SubBufs/SubBufLen are valid: NewSession fills in defaults.
// Callers deriving a Config from anything untrusted should Validate it
// before NewSession, whose panic is reserved for programming errors.
func (cfg Config) Validate() error {
	if cfg.CPUs < 1 {
		return limitf("trace: session needs at least one CPU, got %d", cfg.CPUs)
	}
	if cfg.CPUs > MaxCPUs {
		return limitf("trace: session declares %d CPUs, maximum is %d", cfg.CPUs, MaxCPUs)
	}
	if cfg.SubBufs != 0 || cfg.SubBufLen != 0 {
		subBufs, subBufLen := cfg.SubBufs, cfg.SubBufLen
		if subBufs == 0 {
			subBufs = 8
		}
		if subBufLen == 0 {
			subBufLen = 4096
		}
		if err := ringGeometry(subBufs, subBufLen); err != nil {
			return err
		}
	}
	for _, id := range cfg.Enabled {
		if int(id) >= NumIDs {
			return limitf("trace: cannot enable unknown tracepoint id %d (max %d)", id, NumIDs-1)
		}
	}
	return nil
}

// Session is the tracing control object: one ring per CPU plus the
// tracepoint filter. It corresponds to an LTTng tracing session with one
// channel per CPU.
type Session struct {
	cfg      Config
	rings    []*Ring
	enabled  [NumIDs]atomic.Bool
	recorded atomic.Uint64
	oorLost  atomic.Uint64 // events dropped for an out-of-range CPU
	started  atomic.Bool

	// procMu is the outer lock of the "trace" hierarchy (level 1):
	// it is never acquired with a ring lock held, and ring locks may
	// not be taken above it out of order.
	//noisevet:lockrank trace 1
	procMu sync.Mutex
	procs  []ProcInfo
}

// NewSession creates a session. It panics on invalid geometry so that
// misconfiguration fails loudly at setup, not silently during a run;
// the panic is a programming-error report, never reachable from file
// input — callers holding an untrusted Config must call Config.Validate
// first and handle the typed error themselves.
func NewSession(cfg Config) *Session {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.SubBufs == 0 {
		cfg.SubBufs = 8
	}
	if cfg.SubBufLen == 0 {
		cfg.SubBufLen = 4096
	}
	s := &Session{cfg: cfg, rings: make([]*Ring, cfg.CPUs)}
	for i := range s.rings {
		s.rings[i] = NewRing(cfg.SubBufs, cfg.SubBufLen, cfg.Mode)
	}
	if cfg.Enabled == nil {
		for i := 1; i < NumIDs; i++ {
			s.enabled[i].Store(true)
		}
	} else {
		for _, id := range cfg.Enabled {
			s.enabled[id].Store(true)
		}
	}
	return s
}

// Config returns the session configuration.
func (s *Session) Config() Config { return s.cfg }

// Start enables event recording.
func (s *Session) Start() { s.started.Store(true) }

// Stop quiesces all rings; subsequent Emit calls are dropped.
func (s *Session) Stop() {
	s.started.Store(false)
	for _, r := range s.rings {
		r.Stop()
	}
}

// RegisterProcess records a process-table entry (metadata stream).
func (s *Session) RegisterProcess(p ProcInfo) {
	s.procMu.Lock()
	s.procs = append(s.procs, p)
	s.procMu.Unlock()
}

// Processes returns a copy of the registered process table.
func (s *Session) Processes() []ProcInfo {
	s.procMu.Lock()
	defer s.procMu.Unlock()
	out := make([]ProcInfo, len(s.procs))
	copy(out, s.procs)
	return out
}

// Enable turns a tracepoint on.
func (s *Session) Enable(id ID) { s.enabled[id].Store(true) }

// Disable turns a tracepoint off; its events are filtered at the source,
// as with lttng disable-event.
func (s *Session) Disable(id ID) { s.enabled[id].Store(false) }

// Enabled reports whether a tracepoint is being recorded.
func (s *Session) Enabled(id ID) bool { return s.enabled[id].Load() }

// Emit records an event on the given CPU's channel. It reports the
// simulated tracer overhead in nanoseconds to charge to that CPU (zero
// when the event is filtered or the session is stopped). An event whose
// CPU is outside the session's range is dropped and counted as lost
// rather than panicking: replaying a decoded — possibly corrupt — trace
// through a session must never crash the process.
func (s *Session) Emit(ev Event) int64 {
	if !s.started.Load() || int(ev.ID) >= NumIDs || !s.enabled[ev.ID].Load() {
		return 0
	}
	if ev.CPU < 0 || int(ev.CPU) >= len(s.rings) {
		s.oorLost.Add(1)
		return 0
	}
	if s.rings[ev.CPU].Write(ev) {
		s.recorded.Add(1)
	}
	return s.cfg.OverheadPerEvent
}

// Recorded returns the number of events successfully stored.
func (s *Session) Recorded() uint64 { return s.recorded.Load() }

// Lost returns the total number of events dropped across all CPUs,
// including events dropped for naming a CPU outside the session's
// range.
func (s *Session) Lost() uint64 {
	n := s.oorLost.Load()
	for _, r := range s.rings {
		n += r.Lost()
	}
	return n
}

// DrainCPU consumes fully committed sub-buffers of one CPU (Discard
// mode), for use by a consumer daemon running concurrently with tracing.
func (s *Session) DrainCPU(cpu int, dst []Event) []Event {
	return s.rings[cpu].Drain(dst)
}

// Collect stops the session and returns the complete trace in
// collection order: by timestamp, ties broken by CPU and then by
// emission order. It is a Collector's Finalize with no prior Drain.
func (s *Session) Collect() *Trace {
	return NewCollector(s).Finalize()
}

// ProcKind classifies a process in the trace's process table.
type ProcKind int32

// Process kinds.
const (
	ProcApp ProcKind = iota
	ProcKernelDaemon
	ProcUserDaemon
)

// ProcInfo is one process-table entry: the metadata LTTng keeps in its
// metadata stream, letting offline analysis identify the application
// processes without out-of-band knowledge.
type ProcInfo struct {
	PID  int64    // process id as it appears in scheduler events
	Name string   // comm name, e.g. "amg" or "kswapd0"
	Kind ProcKind // application / kernel / daemon classification
}

// Trace is a fully collected event stream.
type Trace struct {
	CPUs   int     // CPU count the trace was captured on
	Lost   uint64  // events dropped by the tracer's ring buffers
	Events []Event // the merged event stream, in capture order
	// Procs is the process table captured at trace time.
	Procs []ProcInfo
}

// AppPIDs derives the application pid set from the process table
// (nil if the trace carries no table).
func (t *Trace) AppPIDs() map[int64]bool {
	if len(t.Procs) == 0 {
		return nil
	}
	out := make(map[int64]bool)
	for _, p := range t.Procs {
		if p.Kind == ProcApp {
			out[p.PID] = true
		}
	}
	return out
}

// Span returns the time range [first, last] covered by the trace.
func (t *Trace) Span() (first, last int64) {
	if len(t.Events) == 0 {
		return 0, 0
	}
	return t.Events[0].TS, t.Events[len(t.Events)-1].TS
}

// DurationSeconds returns the trace span in seconds.
func (t *Trace) DurationSeconds() float64 {
	first, last := t.Span()
	return float64(last-first) / 1e9
}

// PerCPU splits the trace into per-CPU event slices, preserving order.
// Events naming a CPU outside [0, CPUs) — possible only in a corrupt
// trace — are skipped, matching the analyzers' dropped-event handling.
func (t *Trace) PerCPU() [][]Event {
	out := make([][]Event, t.CPUs)
	for _, ev := range t.Events {
		if ev.CPU < 0 || int(ev.CPU) >= len(out) {
			continue
		}
		out[ev.CPU] = append(out[ev.CPU], ev)
	}
	return out
}

// Filter returns a new trace containing only events matching keep; the
// process table is preserved.
func (t *Trace) Filter(keep func(Event) bool) *Trace {
	nt := &Trace{CPUs: t.CPUs, Lost: t.Lost, Procs: t.Procs}
	for _, ev := range t.Events {
		if keep(ev) {
			nt.Events = append(nt.Events, ev)
		}
	}
	return nt
}
