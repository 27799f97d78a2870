package receiver_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"osnoise/internal/daemon/daemontest"
	"osnoise/internal/daemon/receiver"
	"osnoise/internal/daemon/router"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// newRouter builds an unconstrained router for receiver tests.
func newRouter() *router.Router {
	return router.New(router.Config{MaxConcurrent: 16})
}

// dialNative starts a native receiver, serves it in the background and
// returns a connected client plus a shutdown func.
func dialNative(t *testing.T, ing receiver.Ingestor) (net.Conn, func()) {
	t.Helper()
	n, err := receiver.NewNative("127.0.0.1:0", ing, receiver.NativeConfig{IdleTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- n.Serve(ctx) }()
	c, err := net.Dial("tcp", n.Addr())
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	return c, func() {
		_ = c.Close()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := n.Shutdown(sctx); err != nil {
			t.Errorf("native shutdown: %v", err)
		}
		cancel()
		if err := <-done; err != nil {
			t.Errorf("native serve: %v", err)
		}
	}
}

// TestNativeRoundTrip streams three traces back to back on one
// connection — exercising Decoder.Reset session reuse — and checks the
// tenant's window is bit-identical to the batch fold.
func TestNativeRoundTrip(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	c, shutdown := dialNative(t, rt)
	defer shutdown()

	opts := noise.DefaultOptions()
	opts.KeepDurations = false

	if _, err := c.Write(daemontest.Greeting("acme")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)
	var want noise.WindowSummary
	for seed := uint64(1); seed <= 3; seed++ {
		tr := daemontest.Trace(seed)
		rep := noise.Analyze(tr, opts)
		want.AddReport(rep)
		// Vary the chunking: tiny frames, one big frame, odd size.
		chunk := []int{777, 1 << 20, 4096}[seed-1]
		if _, err := c.Write(daemontest.Frames(daemontest.Encode(tr), chunk)); err != nil {
			t.Fatal(err)
		}
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		wantLine := fmt.Sprintf("OK events=%d noise_ns=%d incomplete=0 sampled=0\n",
			rep.EventsConsumed, rep.TotalNoiseNS)
		if line != wantLine {
			t.Fatalf("trace %d answer %q, want %q", seed, line, wantLine)
		}
	}
	sts := rt.Tenants()
	if len(sts) != 1 || sts[0].ID != "acme" {
		t.Fatalf("tenants after round trip: %+v", sts)
	}
	got := sts[0].Window
	if got.Reports != 3 || got.TotalNoiseNS != want.TotalNoiseNS || got.EventsConsumed != want.EventsConsumed {
		t.Fatalf("window diverges from batch fold:\nwant %+v\ngot  %+v", want, got)
	}
}

// TestNativeErrorResync: a corrupt trace earns an ERR answer but the
// connection stays usable for the next, well-formed trace.
func TestNativeErrorResync(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	c, shutdown := dialNative(t, rt)
	defer shutdown()

	if _, err := c.Write(daemontest.Greeting("acme")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(c)

	// Garbage payload: valid framing, invalid trace.
	if _, err := c.Write(daemontest.Frames([]byte("this is not a trace at all, not even close"), 7)); err != nil {
		t.Fatal(err)
	}
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "ERR bad-trace ") {
		t.Fatalf("corrupt trace answer %q, want ERR bad-trace", line)
	}

	// The same connection still ingests a good trace.
	tr := daemontest.Trace(2)
	if _, err := c.Write(daemontest.Frames(daemontest.Encode(tr), 8192)); err != nil {
		t.Fatal(err)
	}
	line, err = br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "OK ") {
		t.Fatalf("post-error trace answer %q, want OK", line)
	}
}

// TestNativeProtocolErrors: a bad greeting and an oversized frame both
// end the connection with an ERR proto answer.
func TestNativeProtocolErrors(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()

	t.Run("greeting", func(t *testing.T) {
		c, shutdown := dialNative(t, rt)
		defer shutdown()
		if _, err := c.Write([]byte("HELLO nope\n")); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(line, "ERR proto ") {
			t.Fatalf("bad greeting answer %q", line)
		}
	})
	t.Run("greeting-too-long", func(t *testing.T) {
		// Far past maxHeaderLine, with no newline and no close: the
		// server must answer once the greeting outgrows its bound, not
		// wait for the idle deadline.
		c, shutdown := dialNative(t, rt)
		defer shutdown()
		if _, err := c.Write(bytes.Repeat([]byte("a"), 4096)); err != nil {
			t.Fatal(err)
		}
		if err := c.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			t.Fatalf("no answer to an over-long greeting: %v", err)
		}
		if !strings.HasPrefix(line, "ERR proto ") || !strings.Contains(line, "header line too long") {
			t.Fatalf("over-long greeting answer %q", line)
		}
	})
	t.Run("frame-too-big", func(t *testing.T) {
		c, shutdown := dialNative(t, rt)
		defer shutdown()
		if _, err := c.Write(daemontest.Greeting("acme")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(c).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(line, "ERR proto ") {
			t.Fatalf("oversized frame answer %q", line)
		}
	})
}

// TestNativeConnSoak: a socket-level soak — many concurrent NOISED/1
// connections, several traces each, no leaked goroutines after drain.
func TestNativeConnSoak(t *testing.T) {
	const (
		conns          = 32
		tracesPerConn  = 3
		distinctTraces = 4
	)
	payloads := make([][]byte, distinctTraces)
	for i := range payloads {
		payloads[i] = daemontest.Frames(daemontest.Encode(daemontest.Trace(uint64(i+1))), 16384)
	}

	baseline := runtime.NumGoroutine()
	rt := router.New(router.Config{MaxConcurrent: 8})
	n, err := receiver.NewNative("127.0.0.1:0", rt, receiver.NativeConfig{IdleTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- n.Serve(ctx) }()

	var wg sync.WaitGroup
	errC := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := net.Dial("tcp", n.Addr())
			if err != nil {
				errC <- err
				return
			}
			defer func() { _ = c.Close() }()
			if _, err := c.Write(daemontest.Greeting(fmt.Sprintf("soak-%02d", i))); err != nil {
				errC <- err
				return
			}
			br := bufio.NewReader(c)
			for k := 0; k < tracesPerConn; k++ {
				if _, err := c.Write(payloads[(i+k)%distinctTraces]); err != nil {
					errC <- fmt.Errorf("conn %d trace %d: %w", i, k, err)
					return
				}
				line, err := br.ReadString('\n')
				if err != nil {
					errC <- fmt.Errorf("conn %d trace %d: %w", i, k, err)
					return
				}
				if !strings.HasPrefix(line, "OK ") {
					errC <- fmt.Errorf("conn %d trace %d: %s", i, k, line)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errC)
	for err := range errC {
		t.Fatal(err)
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := n.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := rt.Streams(); got != conns*tracesPerConn {
		t.Fatalf("streams = %d, want %d", got, conns*tracesPerConn)
	}
	if err := rt.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the goroutine count returns to baseline.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHTTPIngest: the HTTP API analyses a POSTed trace, answers JSON,
// and maps bad input and bad tenants to 400.
func TestHTTPIngest(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	mux := receiver.NewMux(rt, nil, rt.Tenants)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	tr := daemontest.Trace(1)
	opts := noise.DefaultOptions()
	opts.KeepDurations = false
	rep := noise.Analyze(tr, opts)

	resp, err := http.Post(srv.URL+"/v1/ingest?tenant=acme", "application/octet-stream",
		bytes.NewReader(daemontest.Encode(tr)))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		router.Result
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %+v", resp.StatusCode, res)
	}
	if res.Tenant != "acme" || res.Events != rep.EventsConsumed || res.NoiseNS != rep.TotalNoiseNS {
		t.Fatalf("ingest result %+v, want events=%d noise=%d", res, rep.EventsConsumed, rep.TotalNoiseNS)
	}

	// Bad tenant and bad payload → 400.
	resp, err = http.Post(srv.URL+"/v1/ingest?tenant=bad/slash", "application/octet-stream",
		bytes.NewReader(daemontest.Encode(tr)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad tenant status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/ingest?tenant=acme", "application/octet-stream",
		strings.NewReader("not a trace"))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad payload status %d, want 400", resp.StatusCode)
	}

	// The status endpoint shows the tenant.
	resp, err = http.Get(srv.URL + "/v1/tenants")
	if err != nil {
		t.Fatal(err)
	}
	var sts []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&sts); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if len(sts) != 1 || sts[0]["ID"] != "acme" {
		t.Fatalf("/v1/tenants = %+v", sts)
	}
}

// TestHTTPIngestDecoderReuse posts corrupt and valid traces in turn to
// one handler, which reuses pooled decoders across requests: a request
// after a failed one must still get its own trace's answer, never a
// leftover of the previous body.
func TestHTTPIngestDecoderReuse(t *testing.T) {
	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	h := receiver.IngestHandler(rt)

	tr := daemontest.Trace(3)
	raw := daemontest.Encode(tr)
	opts := noise.DefaultOptions()
	opts.KeepDurations = false
	rep := noise.Analyze(tr, opts)

	for _, step := range []struct {
		name string
		body []byte
		code int
	}{
		{"bad-magic", []byte("this is not a trace at all, not even close"), http.StatusBadRequest},
		{"valid", raw, http.StatusOK},
		{"truncated", raw[:len(raw)/2], http.StatusBadRequest},
		{"valid-again", raw, http.StatusOK},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest?tenant=acme", bytes.NewReader(step.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		var res router.Result
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if w.Code != step.code {
			t.Fatalf("%s: status %d, want %d: %s", step.name, w.Code, step.code, w.Body.Bytes())
		}
		if step.code == http.StatusOK && (res.Events != rep.EventsConsumed || res.NoiseNS != rep.TotalNoiseNS) {
			t.Fatalf("%s: result %+v, want events=%d noise=%d", step.name, res, rep.EventsConsumed, rep.TotalNoiseNS)
		}
	}
}

// TestValidTenant pins the tenant-identifier grammar both transports
// share.
func TestValidTenant(t *testing.T) {
	for id, want := range map[string]bool{
		"a":                      true,
		"acme-prod_7.2":          true,
		"":                       false,
		"has space":              false,
		"slash/y":                false,
		strings.Repeat("x", 128): true,
		strings.Repeat("x", 129): false,
		"newline\n":              false,
	} {
		if got := receiver.ValidTenant(id); got != want {
			t.Errorf("ValidTenant(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestDecoderStreamMatchesBatch: the trace decoded through the native
// pipe path produces a report identical to decoding from memory —
// pinning that frame chunking is invisible to the analysis.
func TestDecoderStreamMatchesBatch(t *testing.T) {
	tr := daemontest.Trace(5)
	raw := daemontest.Encode(tr)
	opts := noise.DefaultOptions()
	opts.KeepDurations = false
	want := noise.Analyze(tr, opts)

	rt := newRouter()
	defer func() { _ = rt.Close(context.Background()) }()
	c, shutdown := dialNative(t, rt)
	defer shutdown()
	if _, err := c.Write(daemontest.Greeting("t")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(daemontest.Frames(raw, 333)); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("OK events=%d noise_ns=%d incomplete=0 sampled=0\n",
		want.EventsConsumed, want.TotalNoiseNS)
	if line != wantLine {
		t.Fatalf("native answer %q, want %q", line, wantLine)
	}
	// Belt and braces: the decoder API used by the pipe path agrees.
	d, err := trace.NewDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	got, err := noise.AnalyzeStream(context.Background(), d, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalNoiseNS != want.TotalNoiseNS || got.EventsConsumed != want.EventsConsumed {
		t.Fatalf("stream/batch divergence: %d/%d vs %d/%d",
			got.TotalNoiseNS, got.EventsConsumed, want.TotalNoiseNS, want.EventsConsumed)
	}
}
