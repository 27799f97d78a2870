package trace

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Fuzzing the decoders: arbitrary bytes must never panic or allocate
// unboundedly — they either parse or return an error.

func FuzzRead(f *testing.F) {
	tr := &Trace{CPUs: 2, Events: []Event{
		{TS: 1, CPU: 0, ID: EvIRQEntry, Arg1: 1},
		{TS: 2, CPU: 1, ID: EvIRQExit, Arg1: 1},
	}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("LTTNOISE"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err == nil && got == nil {
			t.Fatal("nil trace without error")
		}
	})
}

func FuzzReadCompressed(f *testing.F) {
	tr := &Trace{CPUs: 2, Events: []Event{
		{TS: 1, CPU: 0, ID: EvIRQEntry, Arg1: 1},
		{TS: 5, CPU: 1, ID: EvIRQExit, Arg1: -1},
	}}
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("LTTNOISZ"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCompressed(bytes.NewReader(data))
		if err == nil && got == nil {
			t.Fatal("nil trace without error")
		}
	})
}

func FuzzReadAny(f *testing.F) {
	f.Add([]byte("LTTNOISE"))
	f.Add([]byte("LTTNOISZ"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadAny(bytes.NewReader(data)); err != nil && !IsInputError(err) {
			t.Fatalf("untyped error: %v", err)
		}
	})
}

// seedInputs is the deliberately hostile seed set shared by the
// decoder-surface fuzz targets and their checked-in corpora: a valid
// trace, truncated prefixes, and headers whose count/cpus fields lie.
func seedInputs() [][]byte {
	tr := &Trace{CPUs: 2, Events: []Event{
		{TS: 1, CPU: 0, ID: EvIRQEntry, Arg1: 1},
		{TS: 2, CPU: 1, ID: EvIRQExit, Arg1: 1},
	}, Procs: []ProcInfo{{PID: 9, Kind: ProcApp, Name: "app"}}}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		panic(err)
	}
	valid := buf.Bytes()
	lyingCount := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint64(lyingCount[offCount:], 1<<62)
	zeroCPUs := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(zeroCPUs[offCPUs:], 0)
	return [][]byte{
		valid,
		valid[:len(valid)-5],
		valid[:headerSize],
		lyingCount,
		zeroCPUs,
		[]byte("LTTNOISE"),
		{},
	}
}

// fuzzSeeds registers the shared hostile seed set with a fuzz target.
func fuzzSeeds(f *testing.F) {
	f.Helper()
	for _, in := range seedInputs() {
		f.Add(in)
	}
}

// FuzzDecoder drives the streaming Decoder — including the unsized
// path, where the header's count cannot be cross-checked against the
// input size — asserting the panic-free typed-error contract.
func FuzzDecoder(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, sized := range []bool{true, false} {
			var r io.Reader = bytes.NewReader(data)
			if !sized {
				r = io.LimitReader(r, int64(len(data)))
			}
			d, err := NewDecoder(r)
			if err != nil {
				if !IsInputError(err) {
					t.Fatalf("sized=%v: untyped NewDecoder error: %v", sized, err)
				}
				continue
			}
			batch := make([]Event, 256)
			for {
				_, err := d.Next(batch)
				if err == io.EOF {
					break
				}
				if err != nil {
					if !IsInputError(err) {
						t.Fatalf("sized=%v: untyped Next error: %v", sized, err)
					}
					return
				}
			}
			if _, err := d.Procs(); err != nil && !IsInputError(err) {
				t.Fatalf("sized=%v: untyped Procs error: %v", sized, err)
			}
		}
	})
}

// FuzzOpenRaw drives the random-access reader and everything hanging
// off it: Scan over the full event section, individual Event decoding,
// and the trailing process table.
func FuzzOpenRaw(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rt, err := OpenRaw(BytesReaderAt(data), int64(len(data)))
		if err != nil {
			if !IsInputError(err) {
				t.Fatalf("untyped OpenRaw error: %v", err)
			}
			return
		}
		err = rt.Scan(0, rt.EventCount(), func(start uint64, chunk []byte) error {
			return nil
		})
		if err != nil && !IsInputError(err) {
			t.Fatalf("untyped Scan error: %v", err)
		}
		if n := rt.EventCount(); n > 0 {
			if _, err := rt.Event(n - 1); err != nil && !IsInputError(err) {
				t.Fatalf("untyped Event error: %v", err)
			}
		}
		if _, err := rt.Procs(); err != nil && !IsInputError(err) {
			t.Fatalf("untyped Procs error: %v", err)
		}
	})
}

// FuzzReadParallel drives the multi-worker reader, whose workers must
// agree on the typed-error contract even when a corrupt record is
// found mid-shard.
func FuzzReadParallel(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadParallel(context.Background(), BytesReaderAt(data), int64(len(data)), 3)
		if err != nil {
			if !IsInputError(err) {
				t.Fatalf("untyped ReadParallel error: %v", err)
			}
			return
		}
		if got == nil {
			t.Fatal("nil trace without error")
		}
	})
}

// TestFuzzCorpus keeps the checked-in seed corpora under testdata/fuzz
// in sync with seedInputs and collectorSeeds, so `go test` (which
// replays corpus files) always covers the hostile headers and collection
// orders even without -fuzz. Run with OSNOISE_REGEN_CORPUS=1 to rewrite
// the files after changing the seeds.
func TestFuzzCorpus(t *testing.T) {
	targets := []struct {
		name  string
		seeds func() [][]byte
	}{
		{"FuzzDecoder", seedInputs},
		{"FuzzOpenRaw", seedInputs},
		{"FuzzReadParallel", seedInputs},
		{"FuzzCollectorOrder", collectorSeeds},
	}
	regen := os.Getenv("OSNOISE_REGEN_CORPUS") != ""
	for _, target := range targets {
		dir := filepath.Join("testdata", "fuzz", target.name)
		for i, in := range target.seeds() {
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", in)
			if regen {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (regenerate with OSNOISE_REGEN_CORPUS=1)", path, err)
			}
			if string(got) != want {
				t.Fatalf("%s is stale (regenerate with OSNOISE_REGEN_CORPUS=1)", path)
			}
		}
	}
}
