package receiver

// The native streaming protocol, NOISED/1.
//
// One TCP connection carries one tenant's traces back to back:
//
//	client → server   "NOISED/1 <tenant>\n"
//	repeat per trace:
//	  client → server   frames: 4-byte big-endian payload length,
//	                    then that many bytes; payloads concatenate
//	                    into one LTTNOISE trace stream; a zero-length
//	                    frame ends the trace
//	  server → client   "OK events=<n> noise_ns=<n> incomplete=<0|1> sampled=<0|1>\n"
//	                    or "ERR <code> <message>\n"
//	client closes (or half-closes) when done; EOF between traces is
//	the clean end of the connection.
//
// The framing layer is independent of trace content, so a trace-level
// failure (corrupt payload, evicted tenant, budget truncation) only
// costs that trace: the pump discards the remaining frames of the
// current trace to stay in sync and the connection keeps going. Only
// framing-level damage (oversized frame, short read, socket error)
// ends the connection.
//
// The per-connection Decoder is Reset between traces, so the header
// scratch, bufio reader and event staging buffer are reused for the
// connection's whole lifetime — allocation per trace stays flat.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"osnoise/internal/daemon/router"
	"osnoise/internal/daemon/tenant"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// protocol framing constants.
const (
	// protoHeader opens every native connection.
	protoHeader = "NOISED/1"
	// maxHeaderLine bounds the greeting line.
	maxHeaderLine = 16 + maxTenantLen
	// maxFrame bounds one frame payload (16 MiB): large enough for
	// any sane chunking, small enough that a hostile length cannot
	// commit the server to gigabytes.
	maxFrame = 16 << 20
	// copyChunk is the pump's staging buffer size.
	copyChunk = 32 << 10
)

// errIngestDone is the pipe-close cause when the analysis stopped
// reading before the trace's frames ran out — expected under budget
// truncation; the pump switches to discarding.
var errIngestDone = errors.New("receiver: ingest finished early")

// protoErrf builds a connection-fatal protocol error. The hot frame
// pump only reaches it through the errFrame* coldpath barriers.
func protoErrf(format string, args ...any) error {
	return fmt.Errorf("receiver native: "+format, args...)
}

// NativeConfig tunes the native receiver.
type NativeConfig struct {
	// IdleTimeout bounds the wait for the next frame or header on an
	// idle connection; zero means 5 minutes.
	IdleTimeout time.Duration
}

// Native is the daemon's streaming receiver: a bound TCP listener
// whose connections speak NOISED/1.
type Native struct {
	ln    net.Listener
	ing   Ingestor
	cfg   NativeConfig
	drain atomic.Bool

	// mu guards the connection registry used to force-close laggards
	// at the drain deadline. Innermost daemon lock on this path.
	//noisevet:lockrank daemon 4
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// NewNative binds addr and returns a native receiver feeding ing.
func NewNative(addr string, ing Ingestor, cfg NativeConfig) (*Native, error) {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 5 * time.Minute
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("receiver native: %w", err)
	}
	return &Native{ln: ln, ing: ing, cfg: cfg, conns: make(map[net.Conn]struct{})}, nil
}

// Addr returns the bound listen address.
func (n *Native) Addr() string { return n.ln.Addr().String() }

// track registers a live connection.
func (n *Native) track(c net.Conn) {
	n.mu.Lock()
	n.conns[c] = struct{}{}
	n.mu.Unlock()
}

// untrack removes a finished connection.
func (n *Native) untrack(c net.Conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// active returns the number of live connections.
func (n *Native) active() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.conns)
}

// closeConns force-closes every live connection.
func (n *Native) closeConns() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for c := range n.conns {
		_ = c.Close()
	}
}

// Serve accepts connections until Shutdown closes the listener, then
// waits for the connection handlers to finish. ctx bounds the
// analyses the handlers start.
func (n *Native) Serve(ctx context.Context) error {
	var wg sync.WaitGroup
	for {
		c, err := n.ln.Accept()
		if err != nil {
			wg.Wait()
			if n.drain.Load() || ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("receiver native: accept: %w", err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.handle(ctx, c)
		}()
	}
}

// Shutdown stops accepting, lets in-flight connections finish their
// current trace (handlers check the drain flag between traces), and
// force-closes whatever is left when ctx expires.
func (n *Native) Shutdown(ctx context.Context) error {
	n.drain.Store(true)
	_ = n.ln.Close()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for n.active() > 0 {
		select {
		case <-ctx.Done():
			n.closeConns()
			return fmt.Errorf("receiver native: drain: %w", ctx.Err())
		case <-tick.C:
		}
	}
	return nil
}

// readHeaderLine reads the greeting line and returns the tenant ID. It
// looks for the newline within the first maxHeaderLine bytes before
// reading the line, so a client that sends more without one is answered
// at once instead of being buffered until the idle deadline.
func readHeaderLine(br *bufio.Reader) (string, error) {
	for n := 1; ; n++ {
		b, err := br.Peek(n)
		if err != nil {
			return "", protoErrf("reading header: %w", err)
		}
		if b[n-1] == '\n' {
			break
		}
		if n == maxHeaderLine {
			return "", protoErrf("header line too long")
		}
	}
	line, err := br.ReadString('\n')
	if err != nil {
		return "", protoErrf("reading header: %w", err)
	}
	line = line[:len(line)-1] // trailing \n
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	if len(line) < len(protoHeader)+2 || line[:len(protoHeader)] != protoHeader || line[len(protoHeader)] != ' ' {
		return "", protoErrf("bad greeting %q", line)
	}
	id := line[len(protoHeader)+1:]
	if !ValidTenant(id) {
		return "", protoErrf("malformed tenant %q", id)
	}
	return id, nil
}

// pumpFrames is the connection's receive loop: it moves one trace's
// frame payloads from the socket into the analysis pipe. first is the
// already-read length of the trace's first frame. When the analysis
// side stops reading (pw write error), the pump keeps consuming frames
// without forwarding so the connection stays frame-synchronised. A nil
// return means the zero-length end frame was reached; any error is
// connection-fatal framing damage.
//
//noisevet:hotpath
func pumpFrames(br *bufio.Reader, pw *io.PipeWriter, buf []byte, first uint32) error {
	frame := first
	discard := false
	var hdr [4]byte
	for {
		if frame > maxFrame {
			return errFrameTooBig(frame)
		}
		for rem := int(frame); rem > 0; {
			chunk := len(buf)
			if rem < chunk {
				chunk = rem
			}
			if _, err := io.ReadFull(br, buf[:chunk]); err != nil {
				return errFrameRead(err)
			}
			rem -= chunk
			if discard {
				continue
			}
			if _, err := pw.Write(buf[:chunk]); err != nil {
				discard = true
			}
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return errFrameRead(err)
		}
		frame = uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
		if frame == 0 {
			return nil
		}
	}
}

// errFrameTooBig reports a frame length beyond the protocol bound.
//
//noisevet:coldpath
func errFrameTooBig(n uint32) error {
	return protoErrf("frame of %d bytes exceeds the %d byte bound", n, int64(maxFrame))
}

// errFrameRead reports framing-level stream damage.
//
//noisevet:coldpath
func errFrameRead(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return protoErrf("mid-trace: %w", err)
}

// errCode names an ingest error family on the wire.
func errCode(err error) string {
	switch {
	case errors.Is(err, tenant.ErrEvicted):
		return "evicted"
	case trace.IsInputError(err):
		return "bad-trace"
	case errors.Is(err, noise.ErrCancelled):
		return "cancelled"
	default:
		return "internal"
	}
}

// oneLine flattens an error message for the single-line ERR answer.
func oneLine(s string) string {
	out := []byte(s)
	for i, c := range out {
		if c == '\n' || c == '\r' {
			out[i] = ' '
		}
	}
	return string(out)
}

// runTrace streams one trace into the tenant's analysis session: the
// pump forwards frames into a pipe on this goroutine while the ingest
// goroutine decodes and analyses the other end. Returns the analysis
// answer and, separately, any connection-fatal pump error.
func (n *Native) runTrace(ctx context.Context, id string, d **trace.Decoder, br *bufio.Reader, buf []byte, first uint32) (res router.Result, ingErr, connErr error) {
	pr, pw := io.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var err error
		if *d == nil {
			*d, err = trace.NewDecoder(pr)
		} else {
			err = (*d).Reset(pr)
		}
		if err == nil {
			res, err = n.ing.Ingest(ctx, id, *d)
		}
		ingErr = err
		// Unblock the pump if frames outlast the analysis.
		pr.CloseWithError(errIngestDone)
	}()
	connErr = pumpFrames(br, pw, buf, first)
	if connErr != nil {
		pw.CloseWithError(connErr)
	} else {
		// Clean end of frames: the decoder sees EOF.
		_ = pw.Close()
	}
	wg.Wait()
	return res, ingErr, connErr
}

// handle speaks NOISED/1 on one connection.
func (n *Native) handle(ctx context.Context, c net.Conn) {
	n.track(c)
	defer n.untrack(c)
	defer func() { _ = c.Close() }()

	br := bufio.NewReaderSize(c, 64<<10)
	_ = c.SetReadDeadline(time.Now().Add(n.cfg.IdleTimeout))
	id, err := readHeaderLine(br)
	if err != nil {
		fmt.Fprintf(c, "ERR proto %s\n", oneLine(err.Error()))
		return
	}

	var d *trace.Decoder
	buf := make([]byte, copyChunk)
	var hdr [4]byte
	for {
		if n.drain.Load() || ctx.Err() != nil {
			return
		}
		_ = c.SetReadDeadline(time.Now().Add(n.cfg.IdleTimeout))
		// The first frame header doubles as the keepalive point: EOF
		// here is the clean end of the connection.
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err != io.EOF {
				fmt.Fprintf(c, "ERR proto %s\n", oneLine(err.Error()))
			}
			return
		}
		first := uint32(hdr[0])<<24 | uint32(hdr[1])<<16 | uint32(hdr[2])<<8 | uint32(hdr[3])
		if first == 0 {
			fmt.Fprintf(c, "ERR proto empty trace\n")
			continue
		}
		res, ingErr, connErr := n.runTrace(ctx, id, &d, br, buf, first)
		if connErr != nil {
			fmt.Fprintf(c, "ERR proto %s\n", oneLine(connErr.Error()))
			return
		}
		if ingErr != nil {
			fmt.Fprintf(c, "ERR %s %s\n", errCode(ingErr), oneLine(ingErr.Error()))
			continue
		}
		incomplete, sampled := 0, 0
		if res.Incomplete {
			incomplete = 1
		}
		if res.Sampled {
			sampled = 1
		}
		fmt.Fprintf(c, "OK events=%d noise_ns=%d incomplete=%d sampled=%d\n",
			res.Events, res.NoiseNS, incomplete, sampled)
	}
}
