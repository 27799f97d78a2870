package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func entry(gmp, events int, bestWall int64) *PipelineBench {
	return &PipelineBench{
		Events:     events,
		GoMaxProcs: gmp,
		Identical:  true,
		Sequential: PipelinePhase{WallNS: bestWall * 3},
		Parallel: []PipelineShard{
			{Shards: 4, PipelinePhase: PipelinePhase{WallNS: bestWall * 2}},
			{Shards: 8, PipelinePhase: PipelinePhase{WallNS: bestWall}},
		},
	}
}

func TestPipelineTrajectoryAppendAndLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")

	// Missing file: empty history, no error.
	hist, err := LoadPipelineTrajectory(path)
	if err != nil || hist != nil {
		t.Fatalf("missing file: got %v entries, err %v", len(hist), err)
	}

	if err := AppendPipelineTrajectory(path, entry(1, 1000, 500)); err != nil {
		t.Fatal(err)
	}
	if err := AppendPipelineTrajectory(path, entry(1, 1000, 400)); err != nil {
		t.Fatal(err)
	}
	hist, err = LoadPipelineTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("got %d entries, want 2", len(hist))
	}
	if hist[0].Date == "" || hist[1].Date == "" {
		t.Error("appended entries must be date-stamped")
	}
	if hist[1].bestShard().WallNS != 400 {
		t.Errorf("best shard wall = %d, want 400", hist[1].bestShard().WallNS)
	}
}

// TestPipelineTrajectoryLegacyMigration: a pre-trajectory file holding
// one bare object must load as a one-entry history and convert to the
// array form on the first append.
func TestPipelineTrajectoryLegacyMigration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")
	legacy := `{"events": 1000, "gomaxprocs": 1, "reports_identical": true,
		"sequential": {"wall_ns": 900}, "parallel": [{"shards": 8, "wall_ns": 300}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	hist, err := LoadPipelineTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 1 || hist[0].bestShard().WallNS != 300 {
		t.Fatalf("legacy load: got %d entries, best %v", len(hist), hist[0].bestShard())
	}
	if err := AppendPipelineTrajectory(path, entry(1, 1000, 250)); err != nil {
		t.Fatal(err)
	}
	hist, err = LoadPipelineTrajectory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("after migrating append: got %d entries, want 2", len(hist))
	}
	data, _ := os.ReadFile(path)
	if !strings.HasPrefix(strings.TrimSpace(string(data)), "[") {
		t.Error("file did not convert to array form")
	}
}

func TestGatePipelineRegression(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_pipeline.json")

	// Empty history gates nothing, and says so.
	if compared, err := GatePipelineRegression(path, entry(1, 1000, 999), 10); err != nil || compared {
		t.Fatalf("empty history: compared=%v err=%v, want false/nil", compared, err)
	}

	if err := AppendPipelineTrajectory(path, entry(1, 1000, 500)); err != nil {
		t.Fatal(err)
	}
	// Within budget: 10% over 500 is 550.
	if compared, err := GatePipelineRegression(path, entry(1, 1000, 549), 10); err != nil || !compared {
		t.Errorf("within budget: compared=%v err=%v, want true/nil", compared, err)
	}
	// Over budget fails.
	if compared, err := GatePipelineRegression(path, entry(1, 1000, 551), 10); err == nil || !compared {
		t.Errorf("regression not caught: compared=%v err=%v", compared, err)
	}
	// Incomparable machine shape (different GOMAXPROCS or event count)
	// is skipped, not compared — and reported as not compared.
	if compared, err := GatePipelineRegression(path, entry(8, 1000, 5000), 10); err != nil || compared {
		t.Errorf("different gomaxprocs should skip: compared=%v err=%v", compared, err)
	}
	if compared, err := GatePipelineRegression(path, entry(1, 2000, 5000), 10); err != nil || compared {
		t.Errorf("different event count should skip: compared=%v err=%v", compared, err)
	}
	// The gate compares against the LAST comparable entry.
	if err := AppendPipelineTrajectory(path, entry(1, 1000, 300)); err != nil {
		t.Fatal(err)
	}
	if compared, err := GatePipelineRegression(path, entry(1, 1000, 340), 10); err == nil || !compared {
		t.Errorf("regression vs newest entry not caught: compared=%v err=%v", compared, err)
	}
}
