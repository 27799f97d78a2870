package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"osnoise/internal/sim"
	"osnoise/internal/trace"
)

// TestTraceDigestsPinned pins the encoded bytes of a few seeded runs
// against fixed sha256 digests. TestDeterministicReplay only compares a
// run with a second run of the same code, so a change that reorders
// events deterministically — ties between CPUs at one timestamp, say —
// passes it; this test does not. The digests predate the per-CPU
// merge in trace.Collector: they were taken when the collector
// stable-sorted the whole trace, and the merge reproduces that order
// byte for byte.
//
// A digest changes only when the simulated event stream or the trace
// encoding changes on purpose; update it then, and say why in the
// commit.
func TestTraceDigestsPinned(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		run  func() *trace.Trace
		want string
	}{
		{"SPHOT/200ms/seed20110516", func() *trace.Trace {
			return New(SPHOT(), Options{Duration: 200 * sim.Millisecond, Seed: 20110516}).Execute()
		}, "813b810b3795b71bff9887012af854456cdc9548020bd26b2f4178c0be717827"},
		{"AMG/1s/seed1", func() *trace.Trace {
			return New(AMG(), Options{Duration: sim.Second, Seed: 1}).Execute()
		}, "e9aef35ee6abca3de24833a301d3b15affa9327497d95e5b4f9e7b9e9fc91091"},
		{"UMT/1s/seed1/spare", func() *trace.Trace {
			return New(UMT(), Options{Duration: sim.Second, Seed: 1, SpareCPU: true}).Execute()
		}, "6bbb1e8a5fd5acb84f97a580097f09d395e3e962937fce690c7e292f18669015"},
		{"colocated/AMG+SPHOT/1s/seed90", func() *trace.Trace {
			amg, sphot := AMG(), SPHOT()
			amg.Ranks, sphot.Ranks = 4, 4
			return NewColocated(Options{Duration: sim.Second, Seed: 90, CPUs: 4}, amg, sphot).Execute()
		}, "54c916d31fee945f278e2135a8eb2aed0b3c5ba92a9b0e8decd78a850193cf8e"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tr := tc.run()
			var buf bytes.Buffer
			if err := trace.Write(&buf, tr); err != nil {
				t.Fatalf("trace.Write: %v", err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%d events, %d bytes: sha256 %s, want %s", len(tr.Events), buf.Len(), got, tc.want)
			}
		})
	}
}
