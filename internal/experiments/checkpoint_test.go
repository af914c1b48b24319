package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tcor/internal/stats"
)

// journalPayload is a raw cell payload the journal tests write: the journal
// stores any JSON value byte for byte, so no simulation is needed.
func journalPayload(i int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"cell":%d,"misses":[%d,%d]}`, i, 10*i, 10*i+1))
}

// writeJournal opens a fresh journal under fingerprint "job", metered in
// reg, and journals n raw payloads as cells "cell/0".."cell/n-1" with
// config hash "cfg".
func writeJournal(t *testing.T, path string, n int, reg *stats.Registry) {
	t.Helper()
	cp, restored, err := OpenJournal(path, "job", reg)
	if err != nil || restored != 0 {
		t.Fatalf("OpenJournal on a fresh path = (%d, %v), want (0, nil)", restored, err)
	}
	for i := 0; i < n; i++ {
		if err := cp.Journal(fmt.Sprintf("cell/%d", i), "cfg", journalPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	reg1 := stats.NewRegistry()
	writeJournal(t, path, 2, reg1)
	if got := reg1.Snapshot().Get("checkpoint.journaled"); got != 2 {
		t.Fatalf("checkpoint.journaled = %d, want 2", got)
	}

	reg2 := stats.NewRegistry()
	cp, restored, err := OpenJournal(path, "job", reg2)
	if err != nil || restored != 2 {
		t.Fatalf("reopening = (%d, %v), want (2, nil)", restored, err)
	}
	defer cp.Close()
	for i := 0; i < 2; i++ {
		raw, ok := cp.Lookup(fmt.Sprintf("cell/%d", i), "cfg")
		if !ok {
			t.Fatalf("cell/%d not restored", i)
		}
		if !bytes.Equal(raw, journalPayload(i)) {
			t.Fatalf("cell/%d restored as %s, want the journaled bytes %s", i, raw, journalPayload(i))
		}
	}
	if _, ok := cp.Lookup("cell/2", "cfg"); ok {
		t.Fatal("a cell that was never journaled restored")
	}
	snap := reg2.Snapshot()
	if got := snap.Get("checkpoint.restored"); got != 2 {
		t.Fatalf("checkpoint.restored = %d, want 2", got)
	}
	if got := snap.Get("checkpoint.journaled"); got != 0 {
		t.Fatalf("checkpoint.journaled = %d on a fully restored journal, want 0", got)
	}
}

// TestCheckpointTornAndCorruptTail asserts crash safety: a torn final line
// (no newline) and a record whose content hash does not match are both
// truncated away on open, keeping every intact record before them.
func TestCheckpointTornAndCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	writeJournal(t, path, 1, nil)

	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A full line with a lying hash, then a torn half-written line.
	f.WriteString(`{"key":"cell/evil","cfgSHA":"x","sha":"deadbeef","result":{}}` + "\n")
	f.WriteString(`{"key":"cell/torn","cfg`)
	f.Close()

	cp, n, err := OpenJournal(path, "job", nil)
	if err != nil || n != 1 {
		t.Fatalf("reopening past corruption = (%d, %v), want (1, nil)", n, err)
	}
	cp.Close()
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != intact.Size() {
		t.Fatalf("journal is %d bytes after reopen, want truncation back to %d", after.Size(), intact.Size())
	}
}

// TestCheckpointFingerprintMismatch asserts a journal never seeds a job it
// was not written for, and a file that is not a journal is an error, not
// an empty journal.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	writeJournal(t, path, 1, nil)

	if _, _, err := OpenJournal(path, "other-job", nil); err == nil ||
		!strings.Contains(err.Error(), `fingerprint "job"`) {
		t.Fatalf("opening under a different fingerprint = %v, want a fingerprint mismatch error", err)
	}

	if err := os.WriteFile(path, []byte("not a journal\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenJournal(path, "job", nil); err == nil ||
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
	path := filepath.Join(t.TempDir(), "cells.journal")
	writeJournal(t, path, 3, nil)

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

	cp, n, err := OpenJournal(path, "job", nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("restored %d cells past a corrupt middle record, want only the 1 before it", n)
	}
	cp.Close()
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
// key meant: a journaled key looked up under a different config hash (the
// arena's cellSHA of another cache geometry) is a miss, never the old
// answer, and is not metered as a restore.
func TestCheckpointCfgChangeDefeatsRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.journal")
	writeJournal(t, path, 1, nil)

	reg := stats.NewRegistry()
	cp, n, err := OpenJournal(path, "job", reg)
	if err != nil || n != 1 {
		t.Fatalf("reopening = (%d, %v), want (1, nil)", n, err)
	}
	defer cp.Close()
	if raw, ok := cp.Lookup("cell/0", "other-cfg"); ok {
		t.Fatalf("cell/0 restored under a changed config hash: %s", raw)
	}
	if got := reg.Snapshot().Get("checkpoint.restored"); got != 0 {
		t.Fatalf("checkpoint.restored = %d for a changed config, want 0", got)
	}
	if _, ok := cp.Lookup("cell/0", "cfg"); !ok {
		t.Fatal("cell/0 not restored under its own config hash")
	}
}
