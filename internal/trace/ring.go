package trace

import (
	"sync"
	"sync/atomic"
)

// Mode selects the ring buffer's behaviour when full.
type Mode int

const (
	// Discard drops new events when the buffer is full (LTTng's
	// "discard" mode); the Lost counter records how many.
	Discard Mode = iota
	// Overwrite keeps the newest events, overwriting the oldest
	// (LTTng's flight-recorder mode). Reading requires the writer side
	// to be quiesced (Stop), as in an LTTng snapshot.
	Overwrite
)

// Ring is a lock-free single-ring event buffer in the style of an LTTng
// per-CPU channel: storage is divided into sub-buffers; writers reserve a
// slot with an atomic operation, fill it, then commit it; the reader
// consumes only fully committed sub-buffers. Multiple writers may write
// concurrently; one reader may drain concurrently in Discard mode.
type Ring struct {
	mode      Mode
	subBufLen int // slots per sub-buffer (power of two)
	nSubBufs  int // number of sub-buffers (power of two)
	mask      uint64
	slots     []Event
	commit    []atomic.Uint64 // committed slots per sub-buffer
	writePos  atomic.Uint64   // next slot sequence number to reserve
	readPos   atomic.Uint64   // first slot sequence number not yet consumed
	lost      atomic.Uint64
	stopped   atomic.Bool
}

// ringGeometry validates a ring's sub-buffer geometry, returning an
// ErrLimit-family error when it is not a pair of positive powers of
// two. Shared by NewRing's panic and Config.Validate's error path.
func ringGeometry(nSubBufs, subBufLen int) error {
	if nSubBufs <= 0 || subBufLen <= 0 || nSubBufs&(nSubBufs-1) != 0 || subBufLen&(subBufLen-1) != 0 {
		return limitf("trace: ring geometry must be powers of two, got %d x %d", nSubBufs, subBufLen)
	}
	return nil
}

// NewRing creates a ring with nSubBufs sub-buffers of subBufLen slots
// each. Both must be powers of two. Like NewSession, the panic reports
// a programming error — ring geometry never comes from file input;
// untrusted configurations go through Config.Validate first.
func NewRing(nSubBufs, subBufLen int, mode Mode) *Ring {
	if err := ringGeometry(nSubBufs, subBufLen); err != nil {
		panic(err)
	}
	cap := nSubBufs * subBufLen
	return &Ring{
		mode:      mode,
		subBufLen: subBufLen,
		nSubBufs:  nSubBufs,
		mask:      uint64(cap - 1),
		slots:     make([]Event, cap),
		commit:    make([]atomic.Uint64, nSubBufs),
	}
}

// Cap returns the total number of slots.
func (r *Ring) Cap() int { return len(r.slots) }

// Lost returns the number of events dropped in Discard mode.
func (r *Ring) Lost() uint64 { return r.lost.Load() }

// Stop quiesces the ring: subsequent writes are dropped (counted as
// lost). Required before Snapshot in Overwrite mode.
func (r *Ring) Stop() { r.stopped.Store(true) }

// Write records ev. It reports whether the event was stored. In Discard
// mode a full buffer drops the event; in Overwrite mode the oldest
// sub-buffer's data is overwritten instead.
func (r *Ring) Write(ev Event) bool {
	if r.stopped.Load() {
		r.lost.Add(1)
		return false
	}
	var pos uint64
	if r.mode == Overwrite {
		pos = r.writePos.Add(1) - 1
	} else {
		for {
			pos = r.writePos.Load()
			if pos-r.readPos.Load() >= uint64(len(r.slots)) {
				r.lost.Add(1)
				return false
			}
			if r.writePos.CompareAndSwap(pos, pos+1) {
				break
			}
		}
	}
	r.slots[pos&r.mask] = ev
	r.commit[(pos/uint64(r.subBufLen))%uint64(r.nSubBufs)].Add(1)
	return true
}

// ReadSubBuf consumes the oldest fully committed sub-buffer and appends
// its events to dst, returning the extended slice and whether a
// sub-buffer was consumed. Only valid in Discard mode; Overwrite readers
// use Snapshot after Stop.
func (r *Ring) ReadSubBuf(dst []Event) ([]Event, bool) {
	if r.mode != Discard {
		panic("trace: ReadSubBuf requires Discard mode")
	}
	read := r.readPos.Load()
	if r.writePos.Load() < read+uint64(r.subBufLen) {
		return dst, false // oldest sub-buffer not yet fully reserved
	}
	sb := (read / uint64(r.subBufLen)) % uint64(r.nSubBufs)
	// In Discard mode commit[sb] counts exactly the commits since the
	// reader last released this sub-buffer, because writers cannot lap
	// the reader.
	if r.commit[sb].Load() < uint64(r.subBufLen) {
		return dst, false // some slot still being written
	}
	start := read & r.mask
	dst = append(dst, r.slots[start:start+uint64(r.subBufLen)]...)
	r.commit[sb].Store(0)
	r.readPos.Store(read + uint64(r.subBufLen))
	return dst, true
}

// Drain consumes every fully committed sub-buffer (Discard mode).
func (r *Ring) Drain(dst []Event) []Event {
	for {
		var ok bool
		dst, ok = r.ReadSubBuf(dst)
		if !ok {
			return dst
		}
	}
}

// pending returns how many events Flush would return now: the
// unconsumed slots, bounded by the ring's capacity (an Overwrite ring
// keeps at most that many).
func (r *Ring) pending() int {
	n := r.writePos.Load() - r.readPos.Load()
	if n > uint64(len(r.slots)) {
		n = uint64(len(r.slots))
	}
	return int(n)
}

// Flush consumes all remaining events, including those in the partially
// filled current sub-buffer. The ring must be stopped first, mirroring
// lttng stop && lttng destroy flushing partial sub-buffers.
func (r *Ring) Flush(dst []Event) []Event {
	if !r.stopped.Load() {
		panic("trace: Flush before Stop")
	}
	if r.mode == Overwrite {
		return r.Snapshot(dst)
	}
	dst = r.Drain(dst)
	read := r.readPos.Load()
	write := r.writePos.Load()
	for pos := read; pos < write; pos++ {
		dst = append(dst, r.slots[pos&r.mask])
	}
	r.readPos.Store(write)
	return dst
}

// Snapshot returns the events still resident in an Overwrite-mode ring,
// oldest first. The ring must be stopped.
func (r *Ring) Snapshot(dst []Event) []Event {
	if !r.stopped.Load() {
		panic("trace: Snapshot before Stop")
	}
	write := r.writePos.Load()
	n := uint64(len(r.slots))
	start := uint64(0)
	if write > n {
		// The oldest sub-buffer may be partially overwritten; skip to
		// the next sub-buffer boundary to return only intact records.
		start = write - n
		rem := start % uint64(r.subBufLen)
		if rem != 0 {
			start += uint64(r.subBufLen) - rem
		}
	}
	for pos := start; pos < write; pos++ {
		dst = append(dst, r.slots[pos&r.mask])
	}
	return dst
}

// MutexRing is a simple lock-guarded ring used as the baseline in the
// lock-free-vs-mutex ablation benchmark. It has the same Write/Drain
// semantics as a Discard-mode Ring.
type MutexRing struct {
	// mu is the innermost lock of the "trace" hierarchy (level 2):
	// held only across one Write or Drain, with no other lock below.
	//noisevet:lockrank trace 2
	mu    sync.Mutex
	buf   []Event
	lost  uint64
	limit int
}

// NewMutexRing creates a mutex-guarded ring holding at most capSlots
// events.
func NewMutexRing(capSlots int) *MutexRing {
	return &MutexRing{limit: capSlots}
}

// Write appends ev, dropping it if the ring is full.
func (m *MutexRing) Write(ev Event) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.buf) >= m.limit {
		m.lost++
		return false
	}
	m.buf = append(m.buf, ev)
	return true
}

// Drain removes and returns all buffered events.
func (m *MutexRing) Drain(dst []Event) []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	dst = append(dst, m.buf...)
	m.buf = m.buf[:0]
	return dst
}

// Lost returns the dropped-event count.
func (m *MutexRing) Lost() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost
}
