package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"osnoise/internal/ftq"
)

// hostInfo identifies the machine and the code a result was measured
// on.
type hostInfo struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	Source     string `json:"source"` // digest of the module's Go sources
}

func currentHost(root string) hostInfo {
	return hostInfo{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Source:     sourceDigest(root),
	}
}

// sourceDigest hashes the path and content of every .go and go.mod file
// under root, skipping hidden directories. A checkout that is not a git
// repository still gets a stable identity for the code measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, _ = io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}

// ftqWindow is how long each host-noise probe runs.
const ftqWindow = 300 * time.Millisecond

// hostNoisePct runs native FTQ for d and returns the share of basic
// operations the host's noise took away, in percent: the paper's own
// measure applied to the benchmark's host.
func hostNoisePct(d time.Duration) float64 {
	res := ftq.RunNative(ftq.NativeConfig{Duration: d})
	if res.Nmax <= 0 || len(res.Samples) == 0 {
		return 0
	}
	var missing int64
	for _, s := range res.Samples {
		missing += s.Missing
	}
	return 100 * float64(missing) / (float64(res.Nmax) * float64(len(res.Samples)))
}

// heapAllocs reads the cumulative heap allocation in bytes without
// stopping the world.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCounters are the runtime's GC cycle count and total pause time.
type gcCounters struct {
	cycles  uint32
	pauseNS uint64
}

func readGC() gcCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcCounters{cycles: ms.NumGC, pauseNS: ms.PauseTotalNs}
}
