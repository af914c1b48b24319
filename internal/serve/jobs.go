package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"tcor/internal/experiments"
	"tcor/internal/stats"
)

// jobManager owns the durable async jobs: the on-disk store under JobsDir,
// the bounded background executor pool, and the in-memory index the job API
// serves from. Jobs run OFF the sync admission path — a saturated job pool
// never holds a fair-share worker slot — and every completed cell lands in
// the job's checkpoint journal before the next one starts, so a SIGKILL at
// any point loses at most the cell in flight.
type jobManager struct {
	s   *Server
	dir string

	mu   sync.Mutex
	jobs map[string]*jobEntry

	sem    chan struct{} // executor slots (JobWorkers)
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	created    *stats.Counter // jobs ever indexed by this process
	resumed    *stats.Counter // non-terminal jobs re-enqueued at startup
	queuedG    *stats.Gauge
	runningG   *stats.Gauge
	doneC      *stats.Counter
	failedC    *stats.Counter
	cancelledC *stats.Counter
	cellsRun   *stats.Counter // cells executed to completion by this process
	cellsRest  *stats.Counter // cells served from a checkpoint journal
	cellsSim   *stats.Counter // cell simulations started (outcome not yet known)
}

// ErrJobNotFound answers lookups of unknown jobs and of other tenants' jobs
// identically: a job ID must not leak across tenants even as an existence
// bit.
var ErrJobNotFound = &APIError{Status: http.StatusNotFound, Code: "job_not_found",
	Message: "no such job"}

// newJobManager builds the manager and loads the store; resumeLoaded (called
// once the server's compute paths are wired) re-enqueues incomplete jobs.
func newJobManager(s *Server, dir string, workers int) (*jobManager, error) {
	reg := s.reg
	m := &jobManager{
		s:   s,
		dir: dir,
		sem: make(chan struct{}, workers),

		created:    reg.Counter("serve.jobs.created"),
		resumed:    reg.Counter("serve.jobs.resumed"),
		queuedG:    reg.Gauge("serve.jobs.queued"),
		runningG:   reg.Gauge("serve.jobs.running"),
		doneC:      reg.Counter("serve.jobs.done"),
		failedC:    reg.Counter("serve.jobs.failed"),
		cancelledC: reg.Counter("serve.jobs.cancelled"),
		cellsRun:   reg.Counter("serve.jobs.cells.computed"),
		cellsRest:  reg.Counter("serve.jobs.cells.restored"),
		cellsSim:   reg.Counter("serve.jobs.cells.simulations"),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	jobs, err := loadJobs(dir, func(id string, err error) {
		s.logger.Warn("skipping unreadable job", "id", id, "err", err)
	})
	if err != nil {
		return nil, err
	}
	m.jobs = jobs
	// Re-meter the loaded population so the conservation invariant
	// (queued + running + done + failed + cancelled == created) holds
	// per-process, terminal history included.
	for _, e := range jobs {
		m.created.Inc()
		switch e.rec.State {
		case JobDone:
			m.doneC.Inc()
		case JobFailed:
			m.failedC.Inc()
		case JobCancelled:
			m.cancelledC.Inc()
		default:
			m.queuedG.Add(1)
		}
	}
	return m, nil
}

// resumeLoaded re-enqueues every non-terminal loaded job, oldest first. Each
// one re-runs through the same executor a fresh submission uses; its
// checkpoint journal turns already-completed cells into restores.
func (m *jobManager) resumeLoaded() {
	m.mu.Lock()
	var pending []*jobEntry
	for _, e := range m.jobs {
		if !e.rec.State.terminal() {
			pending = append(pending, e)
		}
	}
	m.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].rec.CreatedAtMs != pending[j].rec.CreatedAtMs {
			return pending[i].rec.CreatedAtMs < pending[j].rec.CreatedAtMs
		}
		return pending[i].rec.ID < pending[j].rec.ID
	})
	for _, e := range pending {
		m.resumed.Inc()
		m.s.logger.Info("resuming job", "id", e.rec.ID, "kind", e.rec.Kind,
			"tenant", e.rec.Tenant)
		m.start(e)
	}
}

// stop cancels every running job and waits for the executors to unwind.
// Interrupted jobs keep their on-disk "running"/"queued" records — that is
// the resume contract, not a leak.
func (m *jobManager) stop() {
	m.cancel()
	m.wg.Wait()
}

func (m *jobManager) now() int64 { return m.s.clock.Now().UnixMilli() }

// persistLocked writes the entry's job.json, logging (not propagating) a
// failure: the in-memory record is still authoritative for this process, and
// the worst a lost persist costs is re-execution after a restart.
func (m *jobManager) persistLocked(e *jobEntry) {
	if err := persistJob(e); err != nil {
		m.s.logger.Error("persisting job", "id", e.rec.ID, "err", err)
	}
}

// submit indexes (or finds) the job for a validated request body and returns
// its record plus whether this call created it. Submission is idempotent by
// construction: the ID hashes kind, credential and body, so retrying a
// submission — directly or through a gateway hedge — lands on the same job.
func (m *jobManager) submit(kind, tenantKey string, t *TenantSpec, body []byte) (JobRecord, bool, error) {
	total, err := m.countCells(kind, body)
	if err != nil {
		return JobRecord{}, false, err
	}
	id := JobID(kind, tenantKey, body)
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.jobs[id]; ok {
		if e.rec.Tenant != t.Name {
			// Unreachable while IDs hash the credential; keep the tenant wall
			// anyway in case a future ID scheme loosens that.
			return JobRecord{}, false, ErrJobNotFound
		}
		return e.rec, false, nil
	}
	if m.ctx.Err() != nil {
		return JobRecord{}, false, errDraining
	}
	jdir := filepath.Join(m.dir, id)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return JobRecord{}, false, fmt.Errorf("creating job dir: %w", err)
	}
	now := m.now()
	e := &jobEntry{
		rec: JobRecord{ID: id, Kind: kind, Tenant: t.Name, State: JobQueued,
			TotalCells: total, CreatedAtMs: now, UpdatedAtMs: now},
		body: append([]byte(nil), body...),
		dir:  jdir,
		done: make(chan struct{}),
	}
	// The job must be durable before it is acknowledged: a submission the
	// store cannot record is refused, not half-accepted.
	if err := persistJob(e); err != nil {
		return JobRecord{}, false, fmt.Errorf("persisting job: %w", err)
	}
	m.jobs[id] = e
	m.created.Inc()
	m.queuedG.Add(1)
	m.start(e)
	return e.rec, true, nil
}

// countCells pre-computes a job's TotalCells from its (already validated)
// body, so progress is meaningful from the first status poll.
func (m *jobManager) countCells(kind string, body []byte) (int, error) {
	switch kind {
	case JobKindSweep:
		var req SweepRequest
		if err := decodeStrict(body, &req); err != nil {
			return 0, err
		}
		return len(req.Items), nil
	case JobKindArena:
		var req ArenaRequest
		if err := decodeStrict(body, &req); err != nil {
			return 0, err
		}
		opts, _, err := ArenaKey(req)
		if err != nil {
			return 0, err
		}
		return len(opts.Policies) * len(opts.Benchmarks) * (1 + len(opts.CurveSizesKB)), nil
	}
	return 0, BadRequest("unknown job kind %q", kind)
}

// start hands the entry to the executor pool.
func (m *jobManager) start(e *jobEntry) {
	m.wg.Add(1)
	go m.run(e)
}

// run is one job's executor: wait for a pool slot, transition to running,
// execute the kind-specific work, and commit the terminal state. A shutdown
// mid-run leaves the job resumable; a DELETE turns it cancelled.
func (m *jobManager) run(e *jobEntry) {
	defer m.wg.Done()
	select {
	case m.sem <- struct{}{}:
	case <-m.ctx.Done():
		return // still queued on disk; the next start resumes it
	}
	defer func() { <-m.sem }()

	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()

	m.mu.Lock()
	if e.rec.State.terminal() {
		// Cancelled while queued.
		m.mu.Unlock()
		return
	}
	e.cancel = cancel
	e.rec.State = JobRunning
	// The run recounts every cell (journal restores included), so progress
	// from a previous interrupted run resets rather than double-counts.
	e.rec.DoneCells, e.rec.RestoredCells = 0, 0
	e.rec.UpdatedAtMs = m.now()
	m.queuedG.Add(-1)
	m.runningG.Add(1)
	m.persistLocked(e)
	tenantName := e.rec.Tenant
	m.mu.Unlock()

	// The job runs under its owner's identity: cache charges, span attrs and
	// metrics attribute to the stored tenant name even across a restart.
	tenant := m.s.tenants.byName(tenantName)
	if tenant == nil {
		tenant = m.s.tenants.Default() // roster changed across a restart
	}
	ctx = contextWithTenant(ctx, tenant)
	sp := m.s.tracer.Begin("job."+e.rec.Kind, "serve")
	sp.SetAttr("job", e.rec.ID)
	sp.SetAttr("tenant", tenant.Name)
	ctx = stats.ContextWithTracer(ctx, m.s.tracer)
	ctx = stats.ContextWithSpan(ctx, sp)
	defer sp.End()

	var result []byte
	var err error
	switch e.rec.Kind {
	case JobKindSweep:
		result, err = m.runSweep(ctx, e)
	case JobKindArena:
		result, err = m.runArena(ctx, e)
	default:
		err = fmt.Errorf("unknown job kind %q", e.rec.Kind)
	}
	m.finish(e, result, err)
}

// finish commits a run's outcome. The result file is written before the
// "done" record: a crash between the two re-runs the job (every cell a
// journal restore) rather than ever serving a missing result.
func (m *jobManager) finish(e *jobEntry, result []byte, err error) {
	if err == nil {
		err = atomicWrite(e.resultPath(), result)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e.cancel = nil
	m.runningG.Add(-1)
	e.rec.UpdatedAtMs = m.now()
	switch {
	case err == nil:
		e.rec.State = JobDone
		e.rec.DoneCells = e.rec.TotalCells
		m.doneC.Inc()
	case e.userCancel:
		e.rec.State = JobCancelled
		m.cancelledC.Inc()
	case m.ctx.Err() != nil:
		// Shutdown interrupted the run (whatever error it surfaced as). The
		// on-disk record stays "running" — the resume contract — and the
		// in-memory state returns to queued so the gauges keep partitioning.
		e.rec.State = JobQueued
		m.queuedG.Add(1)
		return
	default:
		e.rec.State = JobFailed
		e.rec.Error = err.Error()
		m.failedC.Inc()
	}
	m.persistLocked(e)
	close(e.done)
}

// noteCell records one completed cell's progress, durably, so a status poll
// (or a restart) sees it.
func (m *jobManager) noteCell(e *jobEntry, restored bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e.rec.DoneCells++
	if restored {
		e.rec.RestoredCells++
		m.cellsRest.Inc()
	} else {
		m.cellsRun.Inc()
	}
	e.rec.UpdatedAtMs = m.now()
	m.persistLocked(e)
}

// runSweep executes a sweep job cell by cell. Each computed cell journals
// before the next starts; a resumed run serves journaled cells byte-for-byte
// (the journal stores the exact trimmed /v1/simulate body the sync path
// embeds), so the final result is identical whether or not the job was ever
// interrupted.
func (m *jobManager) runSweep(ctx context.Context, e *jobEntry) ([]byte, error) {
	var req SweepRequest
	if err := decodeStrict(e.body, &req); err != nil {
		return nil, err
	}
	jobs := make([]job, len(req.Items))
	for i, item := range req.Items {
		j, err := m.s.resolve(item)
		if err != nil {
			return nil, BadRequest("item %d: %v", i, err)
		}
		jobs[i] = j
	}
	cp, _, err := experiments.OpenJournal(e.journalPath(), e.rec.ID, nil)
	if err != nil {
		return nil, err
	}
	defer cp.Close()

	runs := make([][]byte, len(jobs))
	for i, j := range jobs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if raw, ok := cp.Lookup(j.key, ""); ok {
			runs[i] = raw
			m.noteCell(e, true)
			continue
		}
		// Cells ride the shared result cache (charged to the job's tenant)
		// but reach computeCell directly — no admission gate; the job pool
		// is the concurrency bound.
		val, _, err := m.s.cache.get(ctx, j.key, func() (cached, error) {
			m.cellsSim.Inc() // before the outcome, like serve.admitted
			return m.s.computeCell(ctx, j)
		})
		if err == nil {
			err = j.checked(val)
		}
		if err != nil {
			return nil, err
		}
		body := json.RawMessage(string(val.body[:len(val.body)-1]))
		if err := cp.Journal(j.key, "", body); err != nil {
			return nil, err
		}
		runs[i] = body
		m.noteCell(e, false)
	}
	return EncodeSweep(runs)
}

// runArena executes an arena job on a private runner wired to the job's own
// journal, fingerprinted by the job ID like a sweep job's: the race's
// per-policy cells journal as they finish and restore on resume.
func (m *jobManager) runArena(ctx context.Context, e *jobEntry) ([]byte, error) {
	var req ArenaRequest
	if err := decodeStrict(e.body, &req); err != nil {
		return nil, err
	}
	opts, key, err := ArenaKey(req)
	if err != nil {
		return nil, err
	}
	runner := experiments.NewRunner()
	runner.Frames = 1
	runner.MemoCap = 32
	cp, restored, err := experiments.OpenJournal(e.journalPath(), e.rec.ID, runner.Metrics())
	if err != nil {
		return nil, err
	}
	defer cp.Close()
	runner.Checkpoint = cp
	if restored > 0 {
		m.mu.Lock()
		e.rec.RestoredCells = restored
		e.rec.DoneCells = restored
		m.cellsRest.Add(int64(restored))
		m.persistLocked(e)
		m.mu.Unlock()
	}
	// The race rides the arena cache like a sweep cell rides the result
	// cache: a report the daemon already holds is not raced again, and a
	// race this job runs is one the cache metered as a miss.
	val, _, err := m.s.arenaCache.get(ctx, key, func() (cached, error) {
		return m.s.raceArena(ctx, runner, opts)
	})
	if err != nil {
		return nil, err
	}
	return val.body, nil
}

// get returns a tenant's view of one job.
func (m *jobManager) get(id, tenantName string) (JobRecord, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok || e.rec.Tenant != tenantName {
		return JobRecord{}, false
	}
	return e.rec, true
}

// list returns a tenant's jobs, oldest first (ID breaks ties).
func (m *jobManager) list(tenantName string) []JobRecord {
	m.mu.Lock()
	recs := make([]JobRecord, 0, len(m.jobs))
	for _, e := range m.jobs {
		if e.rec.Tenant == tenantName {
			recs = append(recs, e.rec)
		}
	}
	m.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].CreatedAtMs != recs[j].CreatedAtMs {
			return recs[i].CreatedAtMs < recs[j].CreatedAtMs
		}
		return recs[i].ID < recs[j].ID
	})
	return recs
}

// cancelJob cancels a tenant's job: a queued one turns terminal here, a
// running one is interrupted and its executor commits the cancelled state.
func (m *jobManager) cancelJob(id, tenantName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.jobs[id]
	if !ok || e.rec.Tenant != tenantName {
		return ErrJobNotFound
	}
	if e.rec.State.terminal() {
		return &APIError{Status: http.StatusConflict, Code: "job_terminal",
			Message: fmt.Sprintf("job is already %s", e.rec.State)}
	}
	e.userCancel = true
	if e.cancel != nil {
		e.cancel()
		return nil
	}
	e.rec.State = JobCancelled
	e.rec.UpdatedAtMs = m.now()
	m.queuedG.Add(-1)
	m.cancelledC.Inc()
	m.persistLocked(e)
	close(e.done)
	return nil
}

// result returns a done job's stored result body.
func (m *jobManager) result(id, tenantName string) ([]byte, error) {
	m.mu.Lock()
	e, ok := m.jobs[id]
	var state JobState
	var jobErr string
	if ok && e.rec.Tenant == tenantName {
		state, jobErr = e.rec.State, e.rec.Error
	} else {
		ok = false
	}
	m.mu.Unlock()
	if !ok {
		return nil, ErrJobNotFound
	}
	switch state {
	case JobDone:
	case JobFailed:
		return nil, &APIError{Status: http.StatusConflict, Code: "job_failed", Message: jobErr}
	default:
		return nil, &APIError{Status: http.StatusConflict, Code: "job_not_done",
			Message: fmt.Sprintf("job is %s", state)}
	}
	return os.ReadFile(e.resultPath())
}

// --- HTTP surface ---

// jobsUnavailable is the error the job endpoints answer without a live
// store, nil with one.
func (s *Server) jobsUnavailable() error {
	if s.jobsErr != nil {
		return &APIError{Status: http.StatusServiceUnavailable,
			Code: "jobs_unavailable", Message: s.jobsErr.Error()}
	}
	if s.jobs == nil {
		return BadRequest("async jobs need the daemon started with a jobs directory (-jobs-dir)")
	}
	return nil
}

// submitJob answers an ?async=1 submission: 202 with the new job record, or
// 200 with the existing one when the identical submission already landed.
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, kind string, body []byte) {
	if err := s.jobsUnavailable(); err != nil {
		s.shell.WriteError(w, err)
		return
	}
	t := s.tenantFrom(r.Context())
	rec, created, err := s.jobs.submit(kind, TenantKeyFromRequest(r), t, body)
	if err != nil {
		s.shell.WriteError(w, err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusAccepted
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(JobResponse{Job: rec}) //nolint:errcheck // client gone is its own problem
}

// listJobs answers GET /v1/jobs: the calling tenant's jobs.
func (s *Server) listJobs(r *http.Request) (any, error) {
	if err := s.jobsUnavailable(); err != nil {
		return nil, err
	}
	return JobsResponse{Jobs: s.jobs.list(s.tenantFrom(r.Context()).Name)}, nil
}

// handleJob serves GET /v1/jobs/{id}, GET /v1/jobs/{id}/result and
// DELETE /v1/jobs/{id}, all tenant-scoped: another tenant's job — or a
// malformed path — is uniformly a 404.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
	if id == "" {
		s.shell.WriteError(w, ErrJobNotFound)
		return
	}
	if err := s.jobsUnavailable(); err != nil {
		s.shell.WriteError(w, err)
		return
	}
	t := s.tenantFrom(r.Context())
	switch {
	case sub == "" && r.Method == http.MethodGet:
		rec, ok := s.jobs.get(id, t.Name)
		if !ok {
			s.shell.WriteError(w, ErrJobNotFound)
			return
		}
		s.shell.WriteJSON(w, JobResponse{Job: rec})
	case sub == "" && r.Method == http.MethodDelete:
		if err := s.jobs.cancelJob(id, t.Name); err != nil {
			s.shell.WriteError(w, err)
			return
		}
		rec, _ := s.jobs.get(id, t.Name)
		s.shell.WriteJSON(w, JobResponse{Job: rec})
	case sub == "result" && r.Method == http.MethodGet:
		body, err := s.jobs.result(id, t.Name)
		if err != nil {
			s.shell.WriteError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body) //nolint:errcheck // client gone is its own problem
	default:
		s.shell.WriteError(w, MethodNotAllowed(http.MethodGet, http.MethodDelete))
	}
}
