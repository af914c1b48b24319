package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"tcor/internal/geom"
	"tcor/internal/gpu"
	"tcor/internal/workload"
)

// fastSim (telemetry_test.go) is deterministic, so sync and async runs of
// the same request must produce byte-identical bodies.

const sweepBody = `{"items":[{"benchmark":"CCS","tileCacheKB":48},{"benchmark":"CCS","tileCacheKB":64}]}`

// pollJob polls the job API until the job reaches a terminal state.
func pollJob(t *testing.T, h http.Handler, key, id string) JobRecord {
	t.Helper()
	var rec JobRecord
	waitFor(t, func() bool {
		res := tenantHeaderReq(h, http.MethodGet, "/v1/jobs/"+id, "", key)
		if res.Code != 200 {
			t.Fatalf("GET job: %d %s", res.Code, res.Body)
		}
		var jr JobResponse
		if err := json.Unmarshal(res.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		rec = jr.Job
		return rec.State.terminal()
	})
	return rec
}

func submitAsync(t *testing.T, h http.Handler, path, body, key string, wantStatus int) JobRecord {
	t.Helper()
	res := tenantHeaderReq(h, http.MethodPost, path, body, key)
	if res.Code != wantStatus {
		t.Fatalf("POST %s = %d, want %d (body %s)", path, res.Code, wantStatus, res.Body)
	}
	var jr JobResponse
	if err := json.Unmarshal(res.Body.Bytes(), &jr); err != nil {
		t.Fatal(err)
	}
	return jr.Job
}

func TestAsyncWithoutJobsDir(t *testing.T) {
	s := NewServer(Options{})
	s.simulate = fastSim
	rec := postJSON(s.Handler(), "/v1/sweep?async=1", sweepBody)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "jobs directory") {
		t.Fatalf("async without JobsDir: %d %s", rec.Code, rec.Body)
	}
}

// TestJobSurvivesRestart is the crash-resume drill at the package level: run
// one cell of a two-cell sweep, stop the server the hard way (Shutdown
// persists nothing — the on-disk state is exactly what a SIGKILL leaves:
// job.json says "running", the journal holds the completed cell), then start
// a fresh server on the same directory and watch the job finish with the
// first cell restored, not re-executed. CI repeats this with a literal
// SIGKILL of the tcord process.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()

	var mu sync.Mutex
	computed := []string{}
	gateCh := make(chan struct{}) // blocks the second cell
	started := make(chan struct{}, 4)
	blockAfter := 1
	simA := func(ctx context.Context, scene *workload.Scene, cfg gpu.Config) (*gpu.Result, error) {
		mu.Lock()
		n := len(computed)
		computed = append(computed, fmt.Sprintf("%s/%d", scene.Spec.Alias, cfg.TileCacheBytes/1024))
		mu.Unlock()
		started <- struct{}{}
		if n >= blockAfter {
			select {
			case <-gateCh:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fastSim(ctx, scene, cfg)
	}

	a := NewServer(Options{JobsDir: dir, JobWorkers: 1})
	a.simulate = simA
	ha := a.Handler()
	job := submitAsync(t, ha, "/v1/sweep?async=1", sweepBody, "", http.StatusAccepted)

	<-started // cell 1 computing
	<-started // cell 2 parked on gateCh => cell 1 journaled
	waitFor(t, func() bool {
		res := getPath(ha, "/v1/jobs/"+job.ID)
		var jr JobResponse
		if err := json.Unmarshal(res.Body.Bytes(), &jr); err != nil {
			t.Fatal(err)
		}
		return jr.Job.DoneCells == 1
	})
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Server B on the same store: the job must resume, restore cell 1 from
	// the journal and execute only cell 2.
	var muB sync.Mutex
	computedB := []string{}
	b := NewServer(Options{JobsDir: dir, JobWorkers: 1})
	b.simulate = func(ctx context.Context, scene *workload.Scene, cfg gpu.Config) (*gpu.Result, error) {
		muB.Lock()
		computedB = append(computedB, fmt.Sprintf("%s/%d", scene.Spec.Alias, cfg.TileCacheBytes/1024))
		muB.Unlock()
		return fastSim(ctx, scene, cfg)
	}
	hb := b.Handler()

	final := pollJob(t, hb, "", job.ID)
	if final.State != JobDone {
		t.Fatalf("resumed job ended %s (%+v)", final.State, final)
	}
	if final.RestoredCells != 1 || final.DoneCells != 2 {
		t.Fatalf("resume accounting = %+v, want 1 restored of 2", final)
	}
	muB.Lock()
	ran := append([]string(nil), computedB...)
	muB.Unlock()
	if len(ran) != 1 || ran[0] != "CCS/64" {
		t.Fatalf("server B re-executed %v, want only the unjournaled cell CCS/64", ran)
	}

	// Byte-identity across the crash: the resumed result equals what a
	// fresh synchronous run of the same body produces.
	syncRes := postJSON(hb, "/v1/sweep", sweepBody)
	resultRes := getPath(hb, "/v1/jobs/"+job.ID+"/result")
	if !bytes.Equal(resultRes.Body.Bytes(), syncRes.Body.Bytes()) {
		t.Fatalf("resumed result differs from sync:\nasync: %s\nsync:  %s",
			resultRes.Body, syncRes.Body)
	}
	if got := b.Registry().Snapshot().Get("serve.jobs.resumed"); got != 1 {
		t.Fatalf("serve.jobs.resumed = %d, want 1", got)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobCancel(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	defer close(release)

	s := NewServer(Options{JobsDir: t.TempDir(), JobWorkers: 1})
	s.simulate = blockingSim(started, release)
	h := s.Handler()

	job := submitAsync(t, h, "/v1/sweep?async=1", sweepBody, "", http.StatusAccepted)
	if job.ID == "" || job.Kind != JobKindSweep || job.TotalCells != 2 {
		t.Fatalf("job record = %+v", job)
	}
	if job.Tenant != DefaultTenantName {
		t.Fatalf("anonymous job charged to %q", job.Tenant)
	}
	<-started // first cell is running

	del := httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+job.ID, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, del)
	if rec.Code != 200 {
		t.Fatalf("DELETE: %d %s", rec.Code, rec.Body)
	}

	final := pollJob(t, h, "", job.ID)
	if final.State != JobCancelled {
		t.Fatalf("state after cancel = %s", final.State)
	}

	// Cancelling a terminal job is a conflict, and its result never exists.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/jobs/"+job.ID, nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("second DELETE: %d", rec.Code)
	}
	if res := getPath(h, "/v1/jobs/"+job.ID+"/result"); res.Code != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d", res.Code)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestJobTenantScoping pins the isolation wall: a job is visible only to the
// tenant that submitted it — other tenants see a uniform 404 and their own
// empty listings.
func TestJobTenantScoping(t *testing.T) {
	s := NewServer(Options{JobsDir: t.TempDir(), Tenants: testTenants(t)})
	s.simulate = fastSim
	// The last job is still running when the test returns: stop its worker
	// before the job directory is removed.
	t.Cleanup(func() {
		if err := s.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
	})
	h := s.Handler()

	job := submitAsync(t, h, "/v1/sweep?async=1", sweepBody, "key-alpha", http.StatusAccepted)
	if job.Tenant != "alpha" {
		t.Fatalf("job tenant = %q", job.Tenant)
	}
	// Idempotent resubmission: same credential + body = same job, 200.
	if again := submitAsync(t, h, "/v1/sweep?async=1", sweepBody, "key-alpha", http.StatusOK); again.ID != job.ID {
		t.Fatalf("resubmission minted a new job %s (want %s)", again.ID, job.ID)
	}
	if final := pollJob(t, h, "key-alpha", job.ID); final.State != JobDone || final.DoneCells != 2 {
		t.Fatalf("final record = %+v", final)
	}
	var own JobsResponse
	if err := json.Unmarshal(tenantHeaderReq(h, http.MethodGet, "/v1/jobs", "", "key-alpha").Body.Bytes(), &own); err != nil {
		t.Fatal(err)
	}
	if len(own.Jobs) != 1 || own.Jobs[0].ID != job.ID {
		t.Fatalf("alpha's job list = %+v", own.Jobs)
	}

	if res := tenantHeaderReq(h, http.MethodGet, "/v1/jobs/"+job.ID, "", "key-beta"); res.Code != 404 {
		t.Fatalf("cross-tenant GET: %d", res.Code)
	}
	if res := tenantHeaderReq(h, http.MethodDelete, "/v1/jobs/"+job.ID, "", "key-beta"); res.Code != 404 {
		t.Fatalf("cross-tenant DELETE: %d", res.Code)
	}
	if res := tenantHeaderReq(h, http.MethodGet, "/v1/jobs/"+job.ID+"/result", "", "key-beta"); res.Code != 404 {
		t.Fatalf("cross-tenant result: %d", res.Code)
	}
	var list JobsResponse
	res := tenantHeaderReq(h, http.MethodGet, "/v1/jobs", "", "key-beta")
	if err := json.Unmarshal(res.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("beta sees alpha's jobs: %+v", list.Jobs)
	}

	// The same body under a different credential is a different job — async
	// results never leak across tenants through the content address.
	other := submitAsync(t, h, "/v1/sweep?async=1", sweepBody, "key-beta", http.StatusAccepted)
	if other.ID == job.ID {
		t.Fatal("two tenants share one job ID for the same body")
	}
}

// TestAsyncArenaJob runs the arena kind end to end on the real simulator
// but the smallest possible race (one benchmark, LRU only, tiny frame).
func TestAsyncArenaJob(t *testing.T) {
	if testing.Short() {
		t.Skip("arena race on the real simulator")
	}
	s := NewServer(Options{JobsDir: t.TempDir()})
	h := s.Handler()
	body := `{"policies":["LRU"],"benchmarks":["CCS"],"sizeKB":48}`

	job := submitAsync(t, h, "/v1/arena?async=1", body, "", http.StatusAccepted)
	if job.Kind != JobKindArena {
		t.Fatalf("job kind = %q", job.Kind)
	}
	final := pollJob(t, h, "", job.ID)
	if final.State != JobDone {
		t.Fatalf("arena job ended %s: %s", final.State, final.Error)
	}

	syncRes := postJSON(h, "/v1/arena", body)
	if syncRes.Code != 200 {
		t.Fatalf("sync arena: %d %s", syncRes.Code, syncRes.Body)
	}
	if got := syncRes.Header().Get("X-Tcord-Cache"); got != "hit" {
		t.Errorf("sync race after the job: X-Tcord-Cache = %q, want the job's cached report", got)
	}
	resultRes := getPath(h, "/v1/jobs/"+job.ID+"/result")
	if !bytes.Equal(resultRes.Body.Bytes(), syncRes.Body.Bytes()) {
		t.Fatal("async arena result differs from sync")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Errorf("invariants after an arena job: %v", err)
	}
}

// arenaJobBody is the arena job of TestArenaJobSurvivesRestart: one
// benchmark, three policies, no curves, so the job journals three cells.
const arenaJobBody = `{"policies":["LRU","OPT","ARC"],"benchmarks":["CCS"],"sizeKB":48}`

// crashedArenaJob copies a finished arena job's directory into a fresh jobs
// directory and rewinds it to what a SIGKILL mid-race leaves behind:
// job.json says "running", there is no result, and the journal holds the
// given header line plus the first k of the finished run's records.
func crashedArenaJob(t *testing.T, jobDir string, header []byte, k int) string {
	t.Helper()
	dir := t.TempDir()
	dst := filepath.Join(dir, filepath.Base(jobDir))
	if err := os.Mkdir(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(jobDir, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var jf jobFile
	if err := json.Unmarshal(blob, &jf); err != nil {
		t.Fatal(err)
	}
	jf.Record.State = JobRunning
	if blob, err = json.Marshal(jf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dst, "job.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	journal, err := os.ReadFile(filepath.Join(jobDir, "cells.journal"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(journal, []byte("\n")) // [header, records..., ""]
	if len(lines) < 2+k {
		t.Fatalf("finished journal has %d records, want at least %d", len(lines)-2, k)
	}
	out := append(append([]byte{}, header...), bytes.Join(lines[1:1+k], nil)...)
	if err := os.WriteFile(filepath.Join(dst, "cells.journal"), out, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestArenaJobSurvivesRestart is TestJobSurvivesRestart for the arena kind,
// built without timing: server A races a small arena job to done, the test
// rewinds its directory to the state a SIGKILL after k journaled cells
// leaves, and server B on that directory must finish the job restoring
// exactly k cells, with the result a synchronous /v1/arena race produces.
// A journal whose header is the older {format, screen, frames} shape was
// written before arena jobs were fingerprinted by their ID: the job fails
// on the fingerprint and restores nothing.
func TestArenaJobSurvivesRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("arena races on the real simulator")
	}
	dirA := t.TempDir()
	a := NewServer(Options{JobsDir: dirA})
	job := submitAsync(t, a.Handler(), "/v1/arena?async=1", arenaJobBody, "", http.StatusAccepted)
	if final := pollJob(t, a.Handler(), "", job.ID); final.State != JobDone || final.TotalCells != 3 {
		t.Fatalf("arena job on server A ended %+v", final)
	}
	if err := a.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	jobDir := filepath.Join(dirA, job.ID)
	journal, err := os.ReadFile(filepath.Join(jobDir, "cells.journal"))
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := bytes.Cut(journal, []byte("\n"))
	header = append(header, '\n')

	ref := NewServer(Options{})
	syncRes := postJSON(ref.Handler(), "/v1/arena", arenaJobBody)
	if syncRes.Code != 200 {
		t.Fatalf("sync arena: %d %s", syncRes.Code, syncRes.Body)
	}

	const k = 2
	dirB := crashedArenaJob(t, jobDir, header, k)
	b := NewServer(Options{JobsDir: dirB})
	hb := b.Handler()
	final := pollJob(t, hb, "", job.ID)
	if final.State != JobDone {
		t.Fatalf("resumed arena job ended %s: %s", final.State, final.Error)
	}
	if final.RestoredCells != k || final.DoneCells != 3 {
		t.Fatalf("resume accounting = %+v, want %d restored of 3", final, k)
	}
	if got := b.Registry().Snapshot().Get("serve.jobs.cells.restored"); got != k {
		t.Fatalf("serve.jobs.cells.restored = %d, want %d", got, k)
	}
	resultRes := getPath(hb, "/v1/jobs/"+job.ID+"/result")
	if !bytes.Equal(resultRes.Body.Bytes(), syncRes.Body.Bytes()) {
		t.Fatalf("resumed arena result differs from sync:\nasync: %s\nsync:  %s",
			resultRes.Body, syncRes.Body)
	}
	// The k restored cells were served from the journal and only the
	// other 3-k raced and journaled: header plus exactly three records.
	resumed, err := os.ReadFile(filepath.Join(dirB, job.ID, "cells.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(resumed, []byte("\n")); n != 1+3 {
		t.Fatalf("resumed journal has %d lines, want the header and 3 records", n)
	}
	if err := b.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if err := b.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	screen, err := json.Marshal(geom.DefaultScreen())
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(struct {
		Format string `json:"format"`
		Screen string `json:"screen"`
		Frames int    `json:"frames"`
	}{"tcor-checkpoint/2", string(screen), 1})
	if err != nil {
		t.Fatal(err)
	}
	dirC := crashedArenaJob(t, jobDir, append(legacy, '\n'), k)
	before, err := os.ReadFile(filepath.Join(dirC, job.ID, "cells.journal"))
	if err != nil {
		t.Fatal(err)
	}
	c := NewServer(Options{JobsDir: dirC})
	final = pollJob(t, c.Handler(), "", job.ID)
	if final.State != JobFailed || !strings.Contains(final.Error, "fingerprint") {
		t.Fatalf("arena job on an unfingerprinted journal ended %s (%q), want failed on the fingerprint", final.State, final.Error)
	}
	if final.RestoredCells != 0 {
		t.Fatalf("restored %d cells from an unfingerprinted journal, want 0", final.RestoredCells)
	}
	after, err := os.ReadFile(filepath.Join(dirC, job.ID, "cells.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("a rejected journal was rewritten")
	}
	if err := c.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJobIDStability pins the content address the gateway recomputes for
// routing: kind, credential and compacted body, nothing else.
func TestJobIDStability(t *testing.T) {
	id := JobID(JobKindSweep, "key-alpha", []byte(sweepBody))
	if id != JobID(JobKindSweep, "key-alpha", []byte(sweepBody)) {
		t.Fatal("JobID is not deterministic")
	}
	spaced := strings.ReplaceAll(sweepBody, ",", " ,")
	if id != JobID(JobKindSweep, "key-alpha", []byte(spaced)) {
		t.Fatal("JobID is not whitespace-insensitive")
	}
	if id == JobID(JobKindSweep, "key-beta", []byte(sweepBody)) {
		t.Fatal("JobID ignores the credential")
	}
	if id == JobID(JobKindArena, "key-alpha", []byte(sweepBody)) {
		t.Fatal("JobID ignores the kind")
	}
	if len(id) != 32 {
		t.Fatalf("JobID length %d, want 32", len(id))
	}
}
