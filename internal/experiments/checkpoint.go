package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"tcor/internal/stats"
)

// checkpointFormat versions the journal's on-disk shape. Bump it whenever a
// record field changes meaning; an old-format file is a hard error, never a
// silent misread. Version 2 widened the record hash from the result payload
// alone to the full (key, cfgSHA, result) triple, so a flipped byte anywhere
// in a record — not just its payload — is detected on open.
const checkpointFormat = "tcor-checkpoint/2"

// journalHeader is the journal's first line: the format version plus an
// opaque caller-owned fingerprint (the serving layer uses the job's content
// address, so a job directory can never be resumed under a different
// request).
type journalHeader struct {
	Format      string `json:"format"`
	Fingerprint string `json:"fingerprint"`
}

// checkpointRecord is one completed cell: the caller's key, a hash of
// what the key meant (the key alone names but does not pin the cell's
// configuration), the payload, and a hash over the whole triple so a
// corrupted line — whether in the key, the config hash, or the payload — is
// detected rather than restored.
type checkpointRecord struct {
	Key    string          `json:"key"`
	CfgSHA string          `json:"cfgSHA"`
	SHA    string          `json:"sha"`
	Result json.RawMessage `json:"result"`
}

// recordSHA hashes the full record triple. Covering the key and config hash
// (not just the result bytes) means a mid-file flip in a record's name can
// never resurface a valid payload under the wrong cell.
func recordSHA(key, cfgSHA string, result []byte) string {
	h := sha256.New()
	io.WriteString(h, key)
	h.Write([]byte{0})
	io.WriteString(h, cfgSHA)
	h.Write([]byte{0})
	h.Write(result)
	return hex.EncodeToString(h.Sum(nil))
}

// Checkpoint is an append-only journal of completed cells: one JSON line
// per cell, each self-verifying via a content hash. The serving layer's
// async jobs journal through it — a sweep job's /v1/simulate bodies, an
// arena job's per-policy cells (passed to arena.Race) — so a job killed
// at any point, SIGKILL included, resumes by re-executing only the missing
// cells, with byte-identical final output (payloads are restored as the
// exact bytes that were journaled).
//
// Crash safety comes from the format, not fsync discipline: a torn final
// line (the process died mid-write) fails its hash or parse, and open
// truncates the journal from the first bad record onward — whether that
// record is a torn tail or a corrupted line in the middle of the file —
// sacrificing only the cells at and after the damage.
//
// A nil *Checkpoint is a valid no-op, so callers stay unconditional.
type Checkpoint struct {
	mu       sync.Mutex
	f        *os.File
	restored map[string]json.RawMessage // key+"\x00"+cfgSHA -> payload JSON

	restoredC  *stats.Counter // cells served from the journal
	journaledC *stats.Counter // cells appended this session
}

// OpenJournal opens (or creates) the journal at path, fingerprinted by an
// opaque caller-owned string: a journal written under another fingerprint,
// or a file that is not a journal, is an error. Replay validates every
// record's full-triple hash; everything from the first torn or corrupt line
// onward is truncated, and the file is reopened for appends (with a fresh
// header when empty). It returns the checkpoint and the number of
// restorable cells. Restores and appends are metered in reg as
// "checkpoint.restored" and "checkpoint.journaled"; a nil reg meters into a
// private registry.
func OpenJournal(path, fingerprint string, reg *stats.Registry) (*Checkpoint, int, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, 0, err
	}
	if reg == nil {
		reg = stats.NewRegistry()
	}
	cp := &Checkpoint{
		restored:   make(map[string]json.RawMessage),
		restoredC:  reg.Counter("checkpoint.restored"),
		journaledC: reg.Counter("checkpoint.journaled"),
	}

	valid := 0 // byte offset just past the last intact line
	if len(data) > 0 {
		line, rest, _ := bytes.Cut(data, []byte("\n"))
		var hdr journalHeader
		if err := json.Unmarshal(line, &hdr); err != nil || hdr.Format != checkpointFormat {
			return nil, 0, fmt.Errorf("experiments: %s is not a %s journal", path, checkpointFormat)
		}
		if hdr.Fingerprint != fingerprint {
			return nil, 0, fmt.Errorf("experiments: journal %s was written for fingerprint %q, not %q", path, hdr.Fingerprint, fingerprint)
		}
		valid = len(line) + 1
		for len(rest) > 0 {
			line, next, full := bytes.Cut(rest, []byte("\n"))
			if !full {
				break // torn tail: no newline means the write never finished
			}
			var rec checkpointRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				break
			}
			if recordSHA(rec.Key, rec.CfgSHA, rec.Result) != rec.SHA {
				break
			}
			// Payloads stay raw: each consumer decodes into its own type
			// at lookup time.
			cp.restored[rec.Key+"\x00"+rec.CfgSHA] = rec.Result
			valid += len(line) + 1
			rest = next
		}
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, 0, err
		}
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	if valid == 0 {
		hdrLine, err := json.Marshal(journalHeader{Format: checkpointFormat, Fingerprint: fingerprint})
		if err == nil {
			_, err = f.Write(append(hdrLine, '\n'))
		}
		if err != nil {
			f.Close()
			return nil, 0, err
		}
	}
	cp.f = f
	return cp, len(cp.restored), nil
}

// Lookup returns the raw journaled payload for a cell, if the journal holds
// one under the exact config hash. Callers decode it into their own payload
// type; a decode failure should be treated as a miss.
func (cp *Checkpoint) Lookup(key, cfgSHA string) (json.RawMessage, bool) {
	if cp == nil {
		return nil, false
	}
	cp.mu.Lock()
	raw, ok := cp.restored[key+"\x00"+cfgSHA]
	cp.mu.Unlock()
	if ok {
		cp.restoredC.Inc()
	}
	return raw, ok
}

// Journal appends one completed cell of any JSON-marshalable payload type.
// The record is a single write of a single line, so a crash leaves at most
// one torn tail for the next open to truncate.
func (cp *Checkpoint) Journal(key, cfgSHA string, payload any) error {
	if cp == nil {
		return nil
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	line, err := json.Marshal(checkpointRecord{
		Key: key, CfgSHA: cfgSHA, SHA: recordSHA(key, cfgSHA, body), Result: body,
	})
	if err != nil {
		return err
	}
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if _, err := cp.f.Write(append(line, '\n')); err != nil {
		return err
	}
	cp.journaledC.Inc()
	return nil
}

// Close closes the journal file. Already-restored cells stay servable;
// further completions fail to journal.
func (cp *Checkpoint) Close() error {
	if cp == nil || cp.f == nil {
		return nil
	}
	return cp.f.Close()
}
