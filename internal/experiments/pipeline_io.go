package experiments

// Trajectory persistence for the pipeline benchmark. BENCH_pipeline.json
// is treated as an append-only history — one entry per recorded run —
// so performance across PRs reads as a trajectory instead of a single
// overwritten snapshot. The regression gate in ci.sh compares a fresh
// run against the last recorded entry.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// LoadPipelineTrajectory reads the recorded benchmark history at path.
// It accepts both the current array form and the legacy single-object
// form (returned as a one-entry history). A missing file is an empty
// history, not an error.
func LoadPipelineTrajectory(path string) ([]*PipelineBench, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var hist []*PipelineBench
	if err := json.Unmarshal(data, &hist); err == nil {
		return hist, nil
	}
	var one PipelineBench
	if err := json.Unmarshal(data, &one); err != nil {
		return nil, fmt.Errorf("pipeline trajectory %s: not an entry array or legacy entry: %w", path, err)
	}
	return []*PipelineBench{&one}, nil
}

// AppendPipelineTrajectory stamps b with the current UTC time and
// appends it to the history at path, converting a legacy single-object
// file to the array form on first append.
func AppendPipelineTrajectory(path string, b *PipelineBench) error {
	hist, err := LoadPipelineTrajectory(path)
	if err != nil {
		return err
	}
	b.Date = time.Now().UTC().Format(time.RFC3339)
	hist = append(hist, b)
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(hist, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bestShard returns the entry's fastest parallel configuration, or nil
// when none was measured.
func (b *PipelineBench) bestShard() *PipelineShard {
	var best *PipelineShard
	for i := range b.Parallel {
		if best == nil || b.Parallel[i].WallNS < best.WallNS {
			best = &b.Parallel[i]
		}
	}
	return best
}

// GatePipelineRegression compares cur against the last recorded entry
// in the trajectory at path and returns an error when cur's fastest
// parallel wall time is more than pct percent slower. Entries from a
// different machine shape (GOMAXPROCS or event count changed) are
// skipped rather than compared — a gate against an incomparable
// baseline only produces noise. compared reports whether a baseline
// was found at all: an empty or incomparable history gates nothing, and
// the caller must not present that as a pass.
func GatePipelineRegression(path string, cur *PipelineBench, pct float64) (compared bool, err error) {
	hist, err := LoadPipelineTrajectory(path)
	if err != nil {
		return false, err
	}
	var last *PipelineBench
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].GoMaxProcs == cur.GoMaxProcs && hist[i].Events == cur.Events {
			last = hist[i]
			break
		}
	}
	if last == nil {
		return false, nil
	}
	lb, cb := last.bestShard(), cur.bestShard()
	if lb == nil || cb == nil {
		return false, nil
	}
	limit := float64(lb.WallNS) * (1 + pct/100)
	if float64(cb.WallNS) > limit {
		return true, fmt.Errorf("pipeline regression: best parallel wall %v exceeds %.0f%% budget over last recorded %v (%d shards, %s)",
			time.Duration(cb.WallNS), pct, time.Duration(lb.WallNS), lb.Shards, last.Date)
	}
	return true, nil
}
