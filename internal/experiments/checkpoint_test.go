package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tcor/internal/gpu"
	"tcor/internal/resilience"
)

// checkpointChildEnv tells the re-executed test binary to act as the
// kill-and-resume child instead of running the test suite.
const checkpointChildEnv = "TCOR_CHECKPOINT_CHILD"

func TestMain(m *testing.M) {
	if path := os.Getenv(checkpointChildEnv); path != "" {
		checkpointChild(path)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// killResumeBenchmarks is the grid of TestCheckpointKillAndResume: prewarm
// runs one sweep job per benchmark, journaling its six cells together, so a
// kill between jobs needs at least two benchmarks.
var killResumeBenchmarks = []string{"CCS", "GTr"}

// checkpointChild is the victim process of TestCheckpointKillAndResume: a
// prewarm sweep journaling into path, one benchmark at a time, with
// injected per-job latency so the parent has a wide window to SIGKILL it
// between the two benchmarks.
func checkpointChild(path string) {
	inj := resilience.NewInjector(1)
	inj.Arm(resilience.SiteSweep, resilience.FaultPlan{Rate: 1, Latency: 500 * time.Millisecond})
	ctx := resilience.ContextWithInjector(context.Background(), inj)

	r := NewRunner()
	r.Frames = 1
	r.Benchmarks = killResumeBenchmarks
	if _, err := r.OpenCheckpoint(path); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
	if err := r.PrewarmContext(ctx, 1); err != nil {
		fmt.Fprintln(os.Stderr, "child:", err)
		os.Exit(1)
	}
}

// checkpointRunner returns a single-benchmark, single-frame runner — the
// smallest grid the prewarm sweep covers (six configurations).
func checkpointRunner() *Runner {
	r := NewRunner()
	r.Frames = 1
	r.Benchmarks = []string{"CCS"}
	return r
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")

	r1 := checkpointRunner()
	if n, err := r1.OpenCheckpoint(path); err != nil || n != 0 {
		t.Fatalf("OpenCheckpoint on a fresh path = (%d, %v), want (0, nil)", n, err)
	}
	res1, err := r1.Run("CCS", "tcor64", gpu.TCOR(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Checkpoint.Close(); err != nil {
		t.Fatal(err)
	}
	if got := r1.Metrics().Snapshot().Get("checkpoint.journaled"); got != 1 {
		t.Fatalf("checkpoint.journaled = %d, want 1", got)
	}

	r2 := checkpointRunner()
	n, err := r2.OpenCheckpoint(path)
	if err != nil || n != 1 {
		t.Fatalf("reopening = (%d, %v), want (1, nil)", n, err)
	}
	res2, err := r2.Run("CCS", "tcor64", gpu.TCOR(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(res1)
	b2, _ := json.Marshal(res2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("restored result is not byte-identical to the original")
	}
	snap := r2.Metrics().Snapshot()
	if got := snap.Get("checkpoint.restored"); got != 1 {
		t.Fatalf("checkpoint.restored = %d, want 1", got)
	}
	if got := snap.Get("checkpoint.journaled"); got != 0 {
		t.Fatalf("checkpoint.journaled = %d on a fully restored run, want 0", got)
	}
}

// TestCheckpointTornAndCorruptTail asserts crash safety: a torn final line
// (no newline) and a record whose content hash does not match are both
// truncated away on open, keeping every intact record before them.
func TestCheckpointTornAndCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	r := checkpointRunner()
	if _, err := r.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("CCS", "tcor64", gpu.TCOR(64<<10)); err != nil {
		t.Fatal(err)
	}
	r.Checkpoint.Close()

	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A full line with a lying hash, then a torn half-written line.
	f.WriteString(`{"key":"CCS/evil","cfgSHA":"x","sha":"deadbeef","result":{}}` + "\n")
	f.WriteString(`{"key":"CCS/torn","cfg`)
	f.Close()

	r2 := checkpointRunner()
	n, err := r2.OpenCheckpoint(path)
	if err != nil || n != 1 {
		t.Fatalf("reopening past corruption = (%d, %v), want (1, nil)", n, err)
	}
	r2.Checkpoint.Close()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != intact.Size() {
		t.Fatalf("journal is %d bytes after reopen, want truncation back to %d", after.Size(), intact.Size())
	}
}

func TestCheckpointFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	r := checkpointRunner()
	if _, err := r.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	r.Checkpoint.Close()

	other := checkpointRunner()
	other.Frames = 2
	if _, err := other.OpenCheckpoint(path); err == nil ||
		!strings.Contains(err.Error(), "frames=1") {
		t.Fatalf("opening under a different fingerprint = %v, want a frames mismatch error", err)
	}

	if err := os.WriteFile(path, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpointRunner().OpenCheckpoint(path); err == nil ||
		!strings.Contains(err.Error(), "not a "+checkpointFormat+" journal") {
		t.Fatalf("opening a non-journal = %v, want a format error", err)
	}
}

// TestCheckpointMidFileCorruption asserts the record hash covers the whole
// triple, not just the payload: flipping a byte inside a mid-file record's
// key — leaving the line valid JSON and its result bytes untouched — must
// truncate the journal from that record onward, keeping only the records
// before it.
func TestCheckpointMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	r := checkpointRunner()
	if _, err := r.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for _, kb := range []int{64, 128, 256} {
		if _, err := r.Run("CCS", fmt.Sprintf("tcor%d", kb), gpu.TCOR(kb<<10)); err != nil {
			t.Fatal(err)
		}
	}
	r.Checkpoint.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n")) // [header, rec1, rec2, rec3, ""]
	if len(lines) < 4 {
		t.Fatalf("journal has %d lines, want header + 3 records", len(lines)-1)
	}
	// Rewrite the middle record's key to a different but equally valid name.
	// The line stays parseable JSON and the payload bytes are untouched, so
	// only the full-triple hash can catch it.
	var rec checkpointRecord
	if err := json.Unmarshal(lines[2], &rec); err != nil {
		t.Fatal(err)
	}
	tampered, err := json.Marshal(checkpointRecord{
		Key: rec.Key + "X", CfgSHA: rec.CfgSHA, SHA: rec.SHA, Result: rec.Result,
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	out = append(out, lines[0]...)
	out = append(out, lines[1]...)
	out = append(out, tampered...)
	out = append(out, '\n')
	out = append(out, lines[3]...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := checkpointRunner()
	n, err := r2.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d cells past a corrupt middle record, want only the 1 before it", n)
	}
	r2.Checkpoint.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := len(lines[0]) + len(lines[1])
	if len(after) != want {
		t.Fatalf("journal is %d bytes after reopen, want truncation to %d (header + first record)", len(after), want)
	}
}

// TestCheckpointCfgChangeDefeatsRestore asserts the config hash pins what a
// memo key meant: reusing a journaled key name with a different
// configuration must recompute, never restore the old answer.
func TestCheckpointCfgChangeDefeatsRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	r := checkpointRunner()
	if _, err := r.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("CCS", "tc", gpu.TCOR(64<<10)); err != nil {
		t.Fatal(err)
	}
	r.Checkpoint.Close()

	r2 := checkpointRunner()
	if n, err := r2.OpenCheckpoint(path); err != nil || n != 1 {
		t.Fatalf("reopening = (%d, %v), want (1, nil)", n, err)
	}
	if _, err := r2.Run("CCS", "tc", gpu.TCOR(128<<10)); err != nil {
		t.Fatal(err)
	}
	r2.Checkpoint.Close()
	snap := r2.Metrics().Snapshot()
	if got := snap.Get("checkpoint.restored"); got != 0 {
		t.Fatalf("checkpoint.restored = %d for a changed config, want 0", got)
	}
	if got := snap.Get("checkpoint.journaled"); got != 1 {
		t.Fatalf("checkpoint.journaled = %d, want the recomputed cell journaled", got)
	}
}

// TestCheckpointKillAndResume is the crash-recovery contract end to end: a
// child process sweeps the prewarm grid journaling each cell, the parent
// SIGKILLs it mid-run, and a resumed runner completes the grid — restoring
// the journaled cells, re-executing only the missing ones, with final
// results byte-identical to an uninterrupted run. Prewarm journals a
// benchmark's six cells together, so the kill lands between the child's
// two benchmarks.
func TestCheckpointKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary and runs a multi-simulation sweep")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.jsonl")

	cmd := exec.Command(exe, "-test.run", "^$")
	cmd.Env = append(os.Environ(), checkpointChildEnv+"="+path)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first benchmark's six cells are journaled
	// (header + 6 record lines). The injected 500ms per-job latency
	// guarantees the second benchmark's cells are at least half a second
	// away, so the kill lands mid-grid.
	const group = 6 // cells per benchmark: the six prewarm configurations
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("child never journaled %d cells within 2m", group)
		}
		data, _ := os.ReadFile(path)
		if bytes.Count(data, []byte("\n")) >= 1+group {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reaps the SIGKILLed child; its error is the point

	cells := group * len(killResumeBenchmarks)
	resumed := checkpointRunner()
	resumed.Benchmarks = killResumeBenchmarks
	restored, err := resumed.OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored < group || restored >= cells {
		t.Fatalf("restored %d cells, want at least the %d observed and fewer than all %d (the kill must land mid-run)", restored, group, cells)
	}
	if err := resumed.Prewarm(2); err != nil {
		t.Fatal(err)
	}
	snap := resumed.Metrics().Snapshot()
	if got := snap.Get("checkpoint.restored"); got != int64(restored) {
		t.Fatalf("checkpoint.restored = %d, want every one of the %d journaled cells", got, restored)
	}
	if got := snap.Get("checkpoint.journaled"); got != int64(cells-restored) {
		t.Fatalf("checkpoint.journaled = %d, want only the %d un-checkpointed cells re-executed", got, cells-restored)
	}

	// Byte-identity against an uninterrupted run, cell by cell.
	clean := checkpointRunner()
	for _, alias := range killResumeBenchmarks {
		for _, j := range prewarmConfigs(alias) {
			want, err := clean.Run(j.alias, j.name, j.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := resumed.Run(j.alias, j.name, j.cfg)
			if err != nil {
				t.Fatal(err)
			}
			wb, _ := json.Marshal(want)
			gb, _ := json.Marshal(got)
			if !bytes.Equal(wb, gb) {
				t.Fatalf("cell %s/%s differs between the resumed and the uninterrupted run", j.alias, j.name)
			}
		}
	}
}

// TestCheckpointGroupRestoresPartialScene checks checkpointing at group
// granularity: with two of a benchmark's six prewarm cells journaled,
// prewarm restores those two and simulates only the other four, and every
// cell is byte-identical to an uninterrupted run.
func TestCheckpointGroupRestoresPartialScene(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	cells := prewarmConfigs("CCS")
	first := checkpointRunner()
	if _, err := first.OpenCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for _, j := range []runCell{cells[0], cells[4]} {
		if _, err := first.Run(j.alias, j.name, j.cfg); err != nil {
			t.Fatal(err)
		}
	}
	first.Checkpoint.Close()

	resumed := checkpointRunner()
	if n, err := resumed.OpenCheckpoint(path); err != nil || n != 2 {
		t.Fatalf("reopening = (%d, %v), want (2, nil)", n, err)
	}
	if err := resumed.Prewarm(1); err != nil {
		t.Fatal(err)
	}
	resumed.Checkpoint.Close()
	snap := resumed.Metrics().Snapshot()
	if got := snap.Get("checkpoint.restored"); got != 2 {
		t.Errorf("checkpoint.restored = %d, want 2", got)
	}
	if got := snap.Get("checkpoint.journaled"); got != 4 {
		t.Errorf("checkpoint.journaled = %d, want only the 4 missing cells simulated", got)
	}

	clean := checkpointRunner()
	if err := clean.Prewarm(1); err != nil {
		t.Fatal(err)
	}
	for _, j := range cells {
		want, err := clean.Run(j.alias, j.name, j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.Run(j.alias, j.name, j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		wb, _ := json.Marshal(want)
		gb, _ := json.Marshal(got)
		if !bytes.Equal(wb, gb) {
			t.Errorf("cell %s/%s differs between the resumed and the uninterrupted run", j.alias, j.name)
		}
	}
}
