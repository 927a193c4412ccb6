package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/cli"
)

// RegistryConfig tunes the lifecycle policies of a Registry. The zero
// value gets production defaults.
type RegistryConfig struct {
	// SessionTTL evicts a session (closing it and discarding its job
	// records) after this long without any request touching it, once
	// no job is running. Default 30m.
	SessionTTL time.Duration
	// DatasetTTL evicts a dataset — and closes its shared evaluation
	// backends, releasing the memoized fitness caches — after this
	// long without a session referencing it. Default 1h.
	DatasetTTL time.Duration
	// MaxJobsPerSession caps concurrently running jobs per session,
	// counting every kind (GA runs, races and sweeps) in one slot
	// count; exceeding it yields HTTP 429. Default 4.
	MaxJobsPerSession int
	// SweepInterval is the janitor period for idle eviction. Default
	// 30s — a sweep pass holds the registry lock only for in-memory
	// bookkeeping (store deletions happen after it is released), so
	// frequent passes are cheap and reclaim idle backends' memoized
	// caches sooner. Negative disables the janitor (tests call Sweep
	// directly).
	SweepInterval time.Duration
	// SpillDir, when non-empty, is the base directory sharded session
	// backends (SessionRequest.ShardSize >= 1) spill their shards to —
	// one write-once subdirectory per dataset, reused across restarts.
	// Empty keeps shards in memory. ldserve wires -spill-dir here.
	SpillDir string
}

func (c RegistryConfig) withDefaults() RegistryConfig {
	if c.SessionTTL == 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.DatasetTTL == 0 {
		c.DatasetTTL = time.Hour
	}
	if c.MaxJobsPerSession == 0 {
		c.MaxJobsPerSession = 4
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = 30 * time.Second
	}
	return c
}

// Registry owns every dataset, session and job lifecycle behind the
// HTTP surface, so many users share one process. Datasets are
// deduplicated by fingerprint, and each (dataset, backend, statistic,
// workers) combination owns exactly one evaluation backend shared by
// every session that selects it — one memoizing fitness cache per
// dataset+backend, warmed by all users together. All methods are safe
// for concurrent use.
//
// Every record mutation is written through the registry's Store. The
// default is a discard store (process-lifetime state only, the
// historical behavior, at zero marshaling cost); UseStore installs a
// real one — ldserve -data-dir uses an FSStore — in which case
// datasets, sessions and finished job results survive a restart and
// jobs that were running when the previous process died come back in
// state JobInterrupted.
type Registry struct {
	cfg RegistryConfig

	persistFails atomic.Int64 // store writes/deletes that failed (see EngineTotals)
	running      atomic.Int64 // jobs whose run has not finished (see RunningJobs)

	mu       sync.Mutex
	store    Store
	datasets map[string]*datasetEntry
	sessions map[string]*sessionEntry
	jobs     map[string]*jobEntry // running, finished and restored alike
	sessSeq  int
	jobSeq   int
	draining bool
	closed   bool

	jobsWG     sync.WaitGroup // one count per unfinished job
	janitorEnd chan struct{}
}

type backendKey struct {
	backend   repro.Backend
	stat      repro.Statistic
	workers   int
	shardSize int // 0 = monolithic
}

type datasetEntry struct {
	id       string
	data     *repro.Dataset
	info     DatasetInfo
	backends map[backendKey]repro.ParallelEvaluator
	sessions int // live sessions referencing this dataset
	lastUsed time.Time
	ver      int64 // store record version
}

type sessionEntry struct {
	id        string
	datasetID string
	sess      *repro.Session
	backend   string
	statistic string
	active    int                  // job slots held: launching or running jobs (see launch)
	shardSize int                  // effective columns per shard; 0 = monolithic
	sharded   *repro.ShardedEngine // the shared backend, when sharded (sweep jobs need it)
	jobIDs    []string             // in id order (see addJobID)
	lastUsed  time.Time
	ver       int64 // store record version
}

// datasetRecord is the stored document of one dataset: the upload
// description plus the original request, so a restart can rebuild the
// in-memory genotype table (and verify its fingerprint) without
// re-running the HWE scan.
type datasetRecord struct {
	Info    DatasetInfo    `json:"info"`
	Request DatasetRequest `json:"request"`
}

// sessionRecord is the stored document of one session: the creation
// description plus the original request (whose Workers field may be 0
// = one per CPU), so the session and its shared backend can be
// recreated after a restart.
type sessionRecord struct {
	Info    SessionInfo    `json:"info"`
	Request SessionRequest `json:"request"`
}

// jobRecord is the stored document of one job: the status document
// plus the original request. The request is what lets restore relaunch
// a sweep job that was running at crash time — resuming from its
// checkpoint — instead of marking it interrupted. Records written by
// older versions carry no request and unmarshal with Request nil.
type jobRecord struct {
	JobInfo
	Request *JobRequest `json:"request,omitempty"`
}

// NewRegistry builds a registry and, unless cfg.SweepInterval is
// negative, starts its idle-eviction janitor. By default records are
// not retained anywhere (the discard store): install a durable store
// with UseStore before serving traffic to make the registry survive
// restarts. Close releases everything.
func NewRegistry(cfg RegistryConfig) *Registry {
	r := &Registry{
		cfg:      cfg.withDefaults(),
		store:    discardStore{},
		datasets: make(map[string]*datasetEntry),
		sessions: make(map[string]*sessionEntry),
		jobs:     make(map[string]*jobEntry),
	}
	if r.cfg.SweepInterval > 0 {
		r.janitorEnd = make(chan struct{})
		go r.janitor(r.janitorEnd)
	}
	return r
}

// UseStore installs st as the registry's record store and restores
// its contents: datasets are rebuilt from their stored upload
// requests (fingerprint-verified, HWE summary reused), sessions are
// recreated over them with their original ids and shared backends,
// finished job records become fetchable again, and records still in
// state "running" — jobs the previous process never finished — are
// rewritten as JobInterrupted. Records referencing vanished parents
// are dropped.
//
// It must be called on a fresh registry, before any dataset, session
// or job exists and before the registry serves any traffic;
// NewServer's WithStore option calls it at the right moment. The
// registry closes the store when it is closed itself.
func (r *Registry) UseStore(st Store) error {
	if st == nil {
		return fmt.Errorf("%w: nil store", repro.ErrBadConfig)
	}
	r.mu.Lock()
	if err := r.usable(); err != nil {
		r.mu.Unlock()
		return err
	}
	if len(r.datasets)+len(r.sessions)+len(r.jobs) > 0 {
		r.mu.Unlock()
		return fmt.Errorf("%w: UseStore requires a fresh registry", repro.ErrBadConfig)
	}
	r.store = st
	resumes, err := r.restoreLocked() //ldvet:allow mutexio: restore runs before the registry serves any traffic; nothing contends yet
	r.mu.Unlock()
	if err != nil {
		return err
	}
	for _, sj := range resumes {
		if err := r.resume(sj.rec, sj.jr); err != nil {
			return err
		}
	}
	return nil
}

// restoreLocked rebuilds the in-memory state from the store, in
// dependency order: datasets, then sessions, then jobs. It returns the
// records of resumable jobs the previous process was still running;
// the caller relaunches them once the lock is released.
func (r *Registry) restoreLocked() ([]storedJob, error) {
	now := time.Now()

	dsRecs, err := r.store.List(KindDataset)
	if err != nil {
		return nil, err
	}
	for _, rec := range dsRecs {
		var dr datasetRecord
		if err := json.Unmarshal(rec.Data, &dr); err != nil {
			return nil, fmt.Errorf("serve: restore: dataset %s: %w", rec.ID, err)
		}
		data, err := buildDataset(dr.Request)
		if err != nil || datasetID(data) != rec.ID {
			// The stored request no longer reproduces the fingerprint
			// it was filed under (corruption, format drift): drop it.
			r.deleteRecord(KindDataset, rec.ID)
			continue
		}
		r.datasets[rec.ID] = &datasetEntry{
			id:       rec.ID,
			data:     data,
			info:     dr.Info,
			backends: make(map[backendKey]repro.ParallelEvaluator),
			lastUsed: now,
			ver:      rec.Version,
		}
	}

	sessRecs, err := r.store.List(KindSession)
	if err != nil {
		return nil, err
	}
	for _, rec := range sessRecs {
		var sr sessionRecord
		if err := json.Unmarshal(rec.Data, &sr); err != nil {
			return nil, fmt.Errorf("serve: restore: session %s: %w", rec.ID, err)
		}
		if n, ok := seqOf(rec.ID, "s-"); ok && n > r.sessSeq {
			r.sessSeq = n
		}
		de, ok := r.datasets[sr.Request.DatasetID]
		if !ok {
			r.deleteRecord(KindSession, rec.ID) // dataset gone: orphan
			continue
		}
		se, err := r.addSessionLocked(rec.ID, sr.Request, de)
		if err != nil {
			return nil, fmt.Errorf("serve: restore: session %s: %w", rec.ID, err)
		}
		se.ver = rec.Version
	}

	jobRecs, err := r.store.List(KindJob)
	if err != nil {
		return nil, err
	}
	var resumes []storedJob
	for _, rec := range jobRecs {
		var jr jobRecord
		if err := json.Unmarshal(rec.Data, &jr); err != nil {
			return nil, fmt.Errorf("serve: restore: job %s: %w", rec.ID, err)
		}
		if n, ok := seqOf(rec.ID, "j-"); ok && n > r.jobSeq {
			r.jobSeq = n
		}
		se, ok := r.sessions[jr.SessionID]
		if !ok {
			r.deleteRecord(KindJob, rec.ID) // session gone: orphan
			r.deleteRecord(KindCheckpoint, rec.ID)
			continue
		}
		if jr.State == JobRunning {
			// The previous process died mid-run. A resumable kind (a
			// sweep) is restartable work, not a lost result: relaunch it
			// under its original id once the lock drops — its storeSink
			// loads the checkpoint and skips every completed shard.
			if jr.Request != nil {
				if _, resumable := r.kindOf(*jr.Request); resumable {
					resumes = append(resumes, storedJob{rec, jr})
					continue
				}
			}
			var err error
			if jr.JobInfo, err = r.markInterrupted(rec, jr); err != nil {
				return nil, err
			}
		}
		r.jobs[rec.ID] = finishedEntry(jr.JobInfo)
		se.addJobID(rec.ID)
	}
	return resumes, nil
}

// markInterrupted rewrites the record of a job the previous process
// never finished — and that never persisted a result — as
// JobInterrupted, so clients see what happened, and returns the
// rewritten status.
func (r *Registry) markInterrupted(rec Record, jr jobRecord) (JobInfo, error) {
	info := jr.JobInfo
	info.State = JobInterrupted
	info.Error = "job interrupted by server restart before completion; resubmit to recompute"
	info.Report.Running = false
	if _, err := r.putRecord(KindJob, rec.ID, rec.Version, jobRecord{JobInfo: info, Request: jr.Request}); err != nil {
		return JobInfo{}, fmt.Errorf("serve: restore: job %s: %w", rec.ID, err)
	}
	return info, nil
}

// storedJob is one job record read back from the store.
type storedJob struct {
	rec Record
	jr  jobRecord
}

// resume relaunches a restored job record under its original id and
// store version, without a limit check. A job that cannot restart
// (its request no longer validates) is marked interrupted instead.
func (r *Registry) resume(rec Record, jr jobRecord) error {
	start, _ := r.kindOf(*jr.Request)
	if _, err := r.launch(jr.SessionID, rec.ID, rec.Version, *jr.Request, start); err == nil {
		return nil
	}
	info, err := r.markInterrupted(rec, jr)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs[rec.ID] = finishedEntry(info)
	if se, ok := r.sessions[jr.SessionID]; ok {
		se.addJobID(rec.ID)
	}
	return nil
}

// spillDirFor is the per-dataset shard spill directory ("" when the
// server keeps shards in memory).
func (r *Registry) spillDirFor(datasetID string) string {
	if r.cfg.SpillDir == "" {
		return ""
	}
	return filepath.Join(r.cfg.SpillDir, datasetID)
}

// seqOf parses the numeric suffix of a "s-12" / "j-7" style id.
func seqOf(id, prefix string) (int, bool) {
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(id[len(prefix):])
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// storeDiscards reports whether the registry runs on the default
// discard store, letting hot paths skip marshaling entirely.
func (r *Registry) storeDiscards() bool {
	_, ok := r.store.(discardStore)
	return ok
}

// putRecord marshals payload and writes it through the store at the
// given CAS version, returning the new version. It takes no lock:
// callers decide whether the (possibly fsync'd) write happens inside
// or outside the registry mutex.
func (r *Registry) putRecord(kind Kind, id string, ver int64, payload any) (int64, error) {
	if r.storeDiscards() {
		return ver + 1, nil
	}
	b, err := json.Marshal(payload)
	if err != nil {
		return 0, err
	}
	rec, err := r.store.Put(kind, Record{ID: id, Version: ver, Data: b})
	if err != nil {
		return 0, err
	}
	return rec.Version, nil
}

// deleteRecord removes a record, counting and logging real store
// failures (an undeletable record resurfaces after a restart).
func (r *Registry) deleteRecord(kind Kind, id string) {
	if err := r.store.Delete(kind, id); err != nil {
		r.persistFails.Add(1)
		slog.Warn("serve: deleting store record failed", "kind", string(kind), "id", id, "err", err)
	}
}

// janitor receives its end channel as an argument so it never reads
// the mutable field Close writes.
func (r *Registry) janitor(end <-chan struct{}) {
	t := time.NewTicker(r.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.Sweep(time.Now())
		case <-end:
			return
		}
	}
}

// AddDataset registers the uploaded (or synthesized) dataset and
// returns its description. The id is derived from the dataset
// fingerprint, so identical content registers once: a re-upload
// returns the existing entry and shares its warmed fitness caches.
// The record (description plus the original request) is persisted
// through the store before the upload is acknowledged.
func (r *Registry) AddDataset(req DatasetRequest) (DatasetInfo, error) {
	r.mu.Lock()
	err := r.usable()
	r.mu.Unlock()
	if err != nil {
		return DatasetInfo{}, err // draining: don't even parse
	}
	data, err := buildDataset(req)
	if err != nil {
		return DatasetInfo{}, err
	}
	id := datasetID(data)
	r.mu.Lock()
	if e, ok := r.datasets[id]; ok {
		e.lastUsed = time.Now()
		info := e.info
		r.mu.Unlock()
		return info, nil // duplicate: skip the HWE scan entirely
	}
	r.mu.Unlock()

	// The per-SNP HWE QC scan — and the record marshal, which copies
	// the full upload payload — run outside the registry lock.
	info := describeDataset(id, data)
	var recJSON []byte
	if !r.storeDiscards() {
		var err error
		recJSON, err = json.Marshal(datasetRecord{Info: info, Request: req})
		if err != nil {
			return DatasetInfo{}, fmt.Errorf("serve: persist dataset: %w", err)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.usable(); err != nil {
		return DatasetInfo{}, err
	}
	if e, ok := r.datasets[id]; ok { // concurrent identical upload won
		e.lastUsed = time.Now()
		return e.info, nil
	}
	// The fsync'd Put stays under the lock here (unlike the per-job
	// writes): dataset registration is rare — once per distinct
	// upload — and the lock is what makes the fingerprint-dedup
	// check-then-create atomic. Only the payload marshal above, the
	// expensive part for large uploads, runs outside.
	var ver int64 = 1
	if !r.storeDiscards() {
		rec, err := r.store.Put(KindDataset, Record{ID: id, Data: recJSON}) //ldvet:allow mutexio: see above — rare path, and the lock is the dedup atomicity
		if err != nil {
			return DatasetInfo{}, fmt.Errorf("serve: persist dataset: %w", err)
		}
		ver = rec.Version
	}
	r.datasets[id] = &datasetEntry{
		id:       id,
		data:     data,
		info:     info,
		backends: make(map[backendKey]repro.ParallelEvaluator),
		lastUsed: time.Now(),
		ver:      ver,
	}
	return info, nil
}

// Dataset returns the description of a registered dataset.
func (r *Registry) Dataset(id string) (DatasetInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.datasets[id]
	if !ok {
		return DatasetInfo{}, fmt.Errorf("%w: dataset %q", ErrNotFound, id)
	}
	e.lastUsed = time.Now()
	return e.info, nil
}

// CreateSession builds a session over a registered dataset. The
// session borrows the registry's shared evaluation backend for its
// (dataset, backend, statistic, workers) combination — creating it on
// first use — so its memoized fitness survives the session and serves
// every other session on the same study. The session record is
// persisted through the store before the creation is acknowledged.
func (r *Registry) CreateSession(req SessionRequest) (SessionInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.usable(); err != nil {
		return SessionInfo{}, err
	}
	de, ok := r.datasets[req.DatasetID]
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: dataset %q", ErrNotFound, req.DatasetID)
	}
	id := fmt.Sprintf("s-%d", r.sessSeq+1)
	se, err := r.addSessionLocked(id, req, de)
	if err != nil {
		return SessionInfo{}, err
	}
	// Like AddDataset, the fsync'd Put stays under the lock: session
	// creation is rare (once per client setup), and the lock is what
	// makes the s-N id allocation and the session's visibility atomic.
	ver, err := r.putRecord(KindSession, id, 0, sessionRecord{Info: r.sessionInfoLocked(se), Request: req}) //ldvet:allow mutexio: rare path; id allocation + visibility must be atomic
	if err != nil {
		r.removeSessionLocked(se)
		return SessionInfo{}, fmt.Errorf("serve: persist session: %w", err)
	}
	se.ver = ver
	r.sessSeq++
	return r.sessionInfoLocked(se), nil
}

// addSessionLocked validates req, borrows (or creates) the shared
// backend, builds the live session and registers it under id. Both
// CreateSession and restore use it.
func (r *Registry) addSessionLocked(id string, req SessionRequest, de *datasetEntry) (*sessionEntry, error) {
	be, err := parseBackend(req.Backend)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", repro.ErrBadConfig, err)
	}
	stat, err := parseStatistic(req.Statistic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", repro.ErrBadConfig, err)
	}
	if req.Workers < 0 {
		return nil, fmt.Errorf("%w: negative worker count %d", repro.ErrBadConfig, req.Workers)
	}
	if req.ShardSize < 0 {
		return nil, fmt.Errorf("%w: negative shard size %d", repro.ErrBadConfig, req.ShardSize)
	}
	if req.ShardSize > 0 && be != repro.BackendNative {
		return nil, fmt.Errorf("%w: only the native backend shards (backend %q with shard_size %d)", repro.ErrBadConfig, req.Backend, req.ShardSize)
	}
	key := backendKey{backend: be, stat: stat, workers: req.Workers, shardSize: req.ShardSize}
	ev, ok := de.backends[key]
	if !ok {
		if req.ShardSize > 0 {
			ev, err = repro.NewShardedEngine(de.data, stat, req.ShardSize, r.spillDirFor(de.id), req.Workers)
		} else {
			ev, err = repro.NewBackend(de.data, stat, be, req.Workers)
		}
		if err != nil {
			return nil, err
		}
		de.backends[key] = ev
	}
	sess, err := repro.NewSession(de.data,
		repro.WithEvaluator(ev),
		repro.WithStatistic(stat))
	if err != nil {
		return nil, err
	}
	se := &sessionEntry{
		id:        id,
		datasetID: de.id,
		sess:      sess,
		backend:   cli.BackendName(be),
		statistic: cli.StatisticName(stat),
		lastUsed:  time.Now(),
	}
	if eng, ok := ev.(*repro.ShardedEngine); ok && req.ShardSize > 0 {
		se.sharded = eng
		se.shardSize = eng.Plan().ShardSize
	}
	r.sessions[se.id] = se
	de.sessions++
	de.lastUsed = se.lastUsed
	return se, nil
}

// removeSessionLocked unwinds addSessionLocked (persist failed).
func (r *Registry) removeSessionLocked(se *sessionEntry) {
	se.sess.Close()
	delete(r.sessions, se.id)
	if de, ok := r.datasets[se.datasetID]; ok {
		de.sessions--
	}
}

func (r *Registry) sessionInfoLocked(se *sessionEntry) SessionInfo {
	return SessionInfo{
		ID:         se.id,
		DatasetID:  se.datasetID,
		Backend:    se.backend,
		Workers:    se.sess.Workers(),
		Statistic:  se.statistic,
		MaxJobs:    r.cfg.MaxJobsPerSession,
		ActiveJobs: se.active,
		ShardSize:  se.shardSize,
	}
}

func (r *Registry) session(id string) (*sessionEntry, error) {
	se, ok := r.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: session %q", ErrNotFound, id)
	}
	se.lastUsed = time.Now()
	return se, nil
}

// Session returns a live session's description.
func (r *Registry) Session(id string) (SessionInfo, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	se, err := r.session(id)
	if err != nil {
		return SessionInfo{}, err
	}
	return r.sessionInfoLocked(se), nil
}

// Stats returns the session's evaluation backend counters. Because
// backends are shared per dataset+backend, the counters aggregate
// every session's traffic on the same study.
func (r *Registry) Stats(id string) (SessionStats, error) {
	r.mu.Lock()
	se, err := r.session(id)
	r.mu.Unlock()
	if err != nil {
		return SessionStats{}, err
	}
	st := SessionStats{SessionID: id}
	if rep, ok := se.sess.Report(); ok {
		st.Engine = &rep
		st.HitRate = rep.HitRate()
		st.Throughput = rep.Throughput()
	}
	return st, nil
}

// EngineTotals sums the counters of every shared evaluation backend
// currently alive in the registry — the process-wide view the
// /metrics endpoint exposes. Backends that track no counters (the
// master/slave fidelity pools) contribute only to the backend count.
func (r *Registry) EngineTotals() EngineTotals {
	r.mu.Lock()
	defer r.mu.Unlock()
	var t EngineTotals
	t.Datasets = len(r.datasets)
	t.Sessions = len(r.sessions)
	t.StoreFailures = r.persistFails.Load()
	for _, de := range r.datasets {
		for _, ev := range de.backends {
			t.Backends++
			rep, ok := ev.(interface{ Report() repro.EngineReport })
			if !ok {
				continue
			}
			rp := rep.Report()
			t.Requests += rp.Requests
			t.Computed += rp.Computed
			t.CacheHits += rp.CacheHits
			t.Coalesced += rp.Coalesced
			t.CacheEntries += rp.CacheEntries
			t.CacheBytes += rp.CacheBytes
		}
	}
	return t
}

// StartJob launches one background job of the kind the request names
// — a GA run, a race (req.Race) or a sharded sweep (req.Sweep) — on
// the session. The per-session job limit counts every kind; exceeding
// it yields repro.ErrSessionBusy → HTTP 429. The job record is
// persisted in state "running" before the creation is acknowledged,
// and re-persisted with the outcome when the run ends — which is how
// a restart can tell finished jobs from interrupted ones.
func (r *Registry) StartJob(sessionID string, req JobRequest) (JobInfo, error) {
	start, _ := r.kindOf(req)
	return r.launch(sessionID, "", 0, req, start)
}

// startFunc validates a request for one job kind and starts the run
// under ctx, which the registry cancels on DELETE and drain. id is the
// job's id (a sweep keys its checkpoints by it).
type startFunc func(ctx context.Context, se *sessionEntry, id string, req JobRequest) (runHandle, error)

// kindOf maps a request to its kind's start function, and reports
// whether restore may resume the kind after a crash (only sweeps
// checkpoint their progress). It is the one place that reads
// req.Race and req.Sweep to pick a kind.
func (r *Registry) kindOf(req JobRequest) (start startFunc, resumable bool) {
	switch {
	case req.Race != nil:
		return startRace, false
	case req.Sweep != nil:
		return r.startSweep, true
	}
	return startGA, false
}

// launch is the one way a job starts, for every kind and for a job
// restore resumes. In order it:
//
//  1. takes the id and a session slot under r.mu — a new job (id "")
//     gets the next id after the limit check, a resumed one keeps its
//     id and skips the check;
//  2. starts the kind outside the lock (validation and the session's
//     own lock);
//  3. persists the record in state "running" at version ver, outside
//     the lock so the (possibly fsync'd) write never stalls readers;
//  4. re-checks usable() — a drain or Close that began meanwhile has
//     already snapshotted r.jobs — registers the job and starts its
//     pump.
//
// A failed start just gives the slot back. A failure after it stops
// the run and deletes the job's record and checkpoint record.
func (r *Registry) launch(sessionID, id string, ver int64, req JobRequest, start startFunc) (JobInfo, error) {
	r.mu.Lock()
	if err := r.usable(); err != nil {
		r.mu.Unlock()
		return JobInfo{}, err
	}
	se, err := r.session(sessionID)
	if err != nil {
		r.mu.Unlock()
		return JobInfo{}, err
	}
	if id == "" {
		if se.active >= r.cfg.MaxJobsPerSession {
			r.mu.Unlock()
			return JobInfo{}, fmt.Errorf("%w: session %s already runs %d jobs (limit %d)", repro.ErrSessionBusy, se.id, se.active, r.cfg.MaxJobsPerSession)
		}
		r.jobSeq++
		id = fmt.Sprintf("j-%d", r.jobSeq)
	}
	se.active++
	r.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background()) //ldvet:allow ctxflow: a job outlives the request that starts it; DELETE and drain cancel it
	h, err := start(ctx, se, id, req)
	if err != nil {
		cancel()
		r.releaseSlot(se.id)
		return JobInfo{}, err
	}
	je := &jobEntry{
		id:        id,
		sessionID: se.id,
		run:       h,
		req:       &req,
		cancel:    cancel,
		ended:     make(chan struct{}),
	}
	info := je.info()
	je.storeVer, err = r.putRecord(KindJob, id, ver, jobRecord{JobInfo: info, Request: &req})
	if err != nil {
		err = fmt.Errorf("serve: persist job: %w", err)
	} else {
		r.mu.Lock()
		if err = r.usable(); err == nil {
			r.jobs[id] = je
			se.addJobID(id)
			r.running.Add(1)
			r.jobsWG.Add(1)
			r.mu.Unlock()
			go je.pump(r)
			return info, nil
		}
		r.mu.Unlock()
	}
	cancel()
	h.wait()
	r.releaseSlot(se.id)
	r.deleteRecord(KindJob, id)
	r.deleteRecord(KindCheckpoint, id)
	return JobInfo{}, err
}

// addJobID records a job id in the session's list at its place in id
// order. Ids do not arrive in that order: restore reads them in store
// order, and concurrent launches register theirs only after an fsync'd
// write, so a later id can land first.
func (se *sessionEntry) addJobID(id string) {
	i := sort.Search(len(se.jobIDs), func(k int) bool { return idLess(id, se.jobIDs[k]) })
	se.jobIDs = slices.Insert(se.jobIDs, i, id)
}

// releaseSlot returns a job slot taken by launch. The run's end is
// session activity, so it also restarts the idle-eviction clock.
func (r *Registry) releaseSlot(sessionID string) {
	r.mu.Lock()
	if se, ok := r.sessions[sessionID]; ok {
		se.active--
		se.lastUsed = time.Now()
	}
	r.mu.Unlock()
}

// persistJobFinal re-writes the job's record with its final status
// info, the document every later read returns; the pump calls it once
// when the run ends. The record, created in state "running", is what
// a durable store serves after a restart, and its terminal state is
// what tells a finished job from one a crash interrupted. The fsync'd
// write happens outside the registry lock; the CAS version protects
// against the record having moved on (evicted with its session, or
// rewritten as interrupted by a successor process) — those conflicts
// are benign and skipped, while real store failures are counted
// (EngineTotals.StoreFailures) and logged, since they mean the result
// will not survive a restart.
func (r *Registry) persistJobFinal(je *jobEntry, info JobInfo) {
	r.mu.Lock()
	_, ok := r.jobs[je.id]
	r.mu.Unlock()
	if !ok {
		return // evicted: record deleted with its session
	}
	if _, err := r.putRecord(KindJob, je.id, je.storeVer, jobRecord{JobInfo: info, Request: je.req}); err != nil {
		if !errors.Is(err, ErrVersionConflict) {
			r.persistFails.Add(1)
			slog.Warn("serve: persisting job outcome failed; the result will not survive a restart",
				"job", je.id, "state", info.State, "err", err)
		}
		return
	}
	// A terminal job — done, canceled or failed — never resumes, so a
	// checkpoint record (a sweep's) is garbage now; deleting a missing
	// one is a no-op. Only a crash (which leaves the job record in
	// state "running") keeps the checkpoint, and that pair is exactly
	// what restore resumes from.
	r.deleteRecord(KindCheckpoint, je.id)
}

// jobRef resolves a job id to its entry.
func (r *Registry) jobRef(id string) (*jobEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	je, ok := r.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	if se, ok := r.sessions[je.sessionID]; ok {
		se.lastUsed = time.Now()
	}
	return je, nil
}

// Job returns a job's live status (and, once finished, its result).
// After a restart against a durable store, finished jobs answer with
// their persisted outcome and interrupted ones with JobInterrupted.
func (r *Registry) Job(id string) (JobInfo, error) {
	je, err := r.jobRef(id)
	if err != nil {
		return JobInfo{}, err
	}
	return je.info(), nil
}

// StopJob cancels a running job and waits for it to wind down,
// returning the partial result. Stopping a finished (or restored)
// job returns its outcome unchanged.
func (r *Registry) StopJob(id string) (JobInfo, error) {
	je, err := r.jobRef(id)
	if err != nil {
		return JobInfo{}, err
	}
	je.cancel()
	<-je.ended // the run is over and its slot free
	return je.info(), nil
}

// subscribe attaches a conflated frame stream to a job: the returned
// channel delivers the run's SSE frames (a slow reader misses old
// updates, never blocks the run or other subscribers) and is closed
// when the run ends. The latest frame, if any, is delivered first, so
// a late subscriber sees the current state immediately. A subscriber
// to a finished job — live or restored — gets finalFrames of its
// status and an already-closed channel; the caller reads the outcome
// from Job. Call off to detach.
func (r *Registry) subscribe(jobID string) (ch <-chan frame, off func(), err error) {
	je, err := r.jobRef(jobID)
	if err != nil {
		return nil, nil, err
	}
	if ch, detach := je.subscribe(); ch != nil {
		// Detaching counts as session activity, so the idle-eviction
		// clock restarts when a long stream ends (Sweep also skips
		// sessions with live subscribers — see hasSubscribers).
		return ch, func() {
			detach()
			r.touchSession(je.sessionID)
		}, nil
	}
	fs := finalFrames(je.info())
	final := make(chan frame, len(fs))
	for _, f := range fs {
		final <- f
	}
	close(final)
	return final, func() {}, nil
}

// touchSession refreshes the session's idle-eviction clock.
func (r *Registry) touchSession(id string) {
	r.mu.Lock()
	if se, ok := r.sessions[id]; ok {
		se.lastUsed = time.Now()
	}
	r.mu.Unlock()
}

// listLimit clamps a page size: non-positive means the default.
func listLimit(limit int) int {
	const def, max = 100, 500
	if limit <= 0 {
		return def
	}
	if limit > max {
		return max
	}
	return limit
}

// idLess orders registry ids numerically within one prefix ("j-2"
// before "j-10") and lexically otherwise (fingerprint dataset ids).
func idLess(a, b string) bool {
	for _, prefix := range []string{"j-", "s-"} {
		an, aok := seqOf(a, prefix)
		bn, bok := seqOf(b, prefix)
		if aok && bok {
			return an < bn
		}
	}
	return a < b
}

// page applies cursor+limit to an id-sorted slice, returning the page
// and the next cursor ("" when the listing is exhausted).
func page[T any](items []T, idOf func(T) string, cursor string, limit int) ([]T, string) {
	start := 0
	if cursor != "" {
		start = sort.Search(len(items), func(i int) bool { return idLess(cursor, idOf(items[i])) })
	}
	limit = listLimit(limit)
	end := start + limit
	if end >= len(items) {
		return items[start:], ""
	}
	return items[start:end], idOf(items[end-1])
}

// ListDatasets returns one page of registered datasets, sorted by id.
// cursor is the next_cursor of the previous page ("" for the first);
// limit <= 0 means the default page size (100, capped at 500).
func (r *Registry) ListDatasets(cursor string, limit int) (DatasetList, error) {
	r.mu.Lock()
	infos := make([]DatasetInfo, 0, len(r.datasets))
	for _, de := range r.datasets {
		infos = append(infos, de.info)
	}
	r.mu.Unlock()
	sortByID(infos, func(i DatasetInfo) string { return i.ID })
	items, next := page(infos, func(i DatasetInfo) string { return i.ID }, cursor, limit)
	return DatasetList{Datasets: items, NextCursor: next}, nil
}

// ListSessions returns one page of live sessions, sorted by id
// (numerically). Pagination as in ListDatasets.
func (r *Registry) ListSessions(cursor string, limit int) (SessionList, error) {
	r.mu.Lock()
	infos := make([]SessionInfo, 0, len(r.sessions))
	for _, se := range r.sessions {
		infos = append(infos, r.sessionInfoLocked(se))
	}
	r.mu.Unlock()
	sortByID(infos, func(i SessionInfo) string { return i.ID })
	items, next := page(infos, func(i SessionInfo) string { return i.ID }, cursor, limit)
	return SessionList{Sessions: items, NextCursor: next}, nil
}

// ListJobs returns one page of job records — live and restored —
// sorted by id (numerically), optionally filtered to one session
// (unknown session ids answer ErrNotFound). Pagination as in
// ListDatasets.
func (r *Registry) ListJobs(sessionID, cursor string, limit int) (JobList, error) {
	// Page the ids first, then build a JobInfo only for the page.
	ids, next, err := r.pageJobIDs(sessionID, cursor, limit)
	if err != nil {
		return JobList{}, err
	}
	r.mu.Lock()
	entries := make([]*jobEntry, 0, len(ids))
	for _, id := range ids {
		if je, ok := r.jobs[id]; ok { // a registry-wide page may name a job evicted since
			entries = append(entries, je)
		}
	}
	r.mu.Unlock()
	infos := make([]JobInfo, len(entries))
	for i, je := range entries {
		infos[i] = je.info() // outside the lock: a running job asks its run handle
	}
	return JobList{Jobs: infos, NextCursor: next}, nil
}

// pageJobIDs returns one page of the ids a job listing covers, in id
// order, and the next cursor. A session's ids are kept in order and
// paged under the lock. For sessionID "" every job id is copied under
// the lock and sorted after it drops, so the sort holds up no other
// registry call.
func (r *Registry) pageJobIDs(sessionID, cursor string, limit int) ([]string, string, error) {
	byID := func(id string) string { return id }
	r.mu.Lock()
	if sessionID == "" {
		ids := slices.Collect(maps.Keys(r.jobs))
		r.mu.Unlock()
		sortByID(ids, byID)
		ids, next := page(ids, byID, cursor, limit)
		return ids, next, nil
	}
	defer r.mu.Unlock()
	se, ok := r.sessions[sessionID]
	if !ok {
		return nil, "", fmt.Errorf("%w: session %q", ErrNotFound, sessionID)
	}
	se.lastUsed = time.Now()
	ids, next := page(se.jobIDs, byID, cursor, limit)
	return slices.Clone(ids), next, nil
}

// sortByID sorts items by registry id order (see idLess).
func sortByID[T any](items []T, idOf func(T) string) {
	sort.Slice(items, func(i, j int) bool { return idLess(idOf(items[i]), idOf(items[j])) })
}

// BeginDrain puts the registry in drain mode: every running job is
// cancelled through its context (winding down within one generation
// and keeping its partial result fetchable), and mutating calls —
// AddDataset, CreateSession, StartJob — are rejected with ErrDraining.
// Reads and event streams keep working so clients can collect what
// their cancelled jobs produced. Drain does not delete records: a
// durable store keeps everything for the next process.
func (r *Registry) BeginDrain() {
	r.mu.Lock()
	r.draining = true
	entries := make([]*jobEntry, 0, len(r.jobs))
	for _, je := range r.jobs {
		entries = append(entries, je)
	}
	r.mu.Unlock()
	for _, je := range entries {
		je.cancel()
	}
}

// RunningJobs counts the jobs that have not finished yet.
func (r *Registry) RunningJobs() int {
	return int(r.running.Load())
}

func (r *Registry) usable() error {
	if r.closed {
		return fmt.Errorf("%w: registry closed", ErrDraining)
	}
	if r.draining {
		return ErrDraining
	}
	return nil
}

// Sweep applies the idle-eviction policy as of now: sessions idle
// longer than SessionTTL with no running job are closed (their job
// records — live and restored — go with them, including the persisted
// ones), and datasets no session references for longer than
// DatasetTTL are dropped, closing their shared backends and releasing
// the memoized caches. Eviction means "forgotten": it deletes the
// store records too, so an evicted id stays gone across restarts. The
// janitor calls this periodically; tests may call it directly with a
// synthetic clock.
//
// The store deletions of evicted session trees happen after the
// mutex is released: under FSStore each is a filesystem unlink, and
// a churn-heavy sweep (hundreds of sessions, each with job and
// checkpoint records) would otherwise stall every concurrent request
// for the whole pass. Session and job ids are monotonic and never
// reused within a process, so the late deletes cannot hit a
// recreated record. Dataset records stay under the lock: their ids
// are content fingerprints, and a concurrent re-upload of the same
// study may legitimately re-create the id the moment the lock drops.
func (r *Registry) Sweep(now time.Time) (evictedSessions, evictedDatasets int) {
	var orphans []recordRef
	r.mu.Lock()
	for id, se := range r.sessions {
		if now.Sub(se.lastUsed) <= r.cfg.SessionTTL || se.active > 0 {
			continue
		}
		if r.sessionStreamedLocked(se) {
			continue // a live event stream pins the session
		}
		orphans = append(orphans, r.dropSessionLocked(id, se, now)...)
		evictedSessions++
	}
	for id, de := range r.datasets {
		if de.sessions > 0 || now.Sub(de.lastUsed) <= r.cfg.DatasetTTL {
			continue
		}
		for _, ev := range de.backends {
			ev.Close()
		}
		delete(r.datasets, id)
		r.deleteRecord(KindDataset, id) //ldvet:allow mutexio: dataset ids are content fingerprints; a concurrent re-upload may recreate the id the moment the lock drops (see the Sweep doc)
		evictedDatasets++
	}
	r.mu.Unlock()
	for _, ref := range orphans {
		r.deleteRecord(ref.kind, ref.id)
	}
	return evictedSessions, evictedDatasets
}

// sessionStreamedLocked reports whether any of the session's jobs has
// a live progress subscriber.
func (r *Registry) sessionStreamedLocked(se *sessionEntry) bool {
	for _, jid := range se.jobIDs {
		if je, ok := r.jobs[jid]; ok && je.hasSubscribers() {
			return true
		}
	}
	return false
}

// recordRef names one store record, so eviction can collect the
// records to forget under the lock and delete them after it.
type recordRef struct {
	kind Kind
	id   string
}

// dropSessionLocked closes one session and forgets its job records in
// memory, returning the store records the caller must delete once the
// lock is released.
func (r *Registry) dropSessionLocked(id string, se *sessionEntry, now time.Time) []recordRef {
	se.sess.Close()
	refs := make([]recordRef, 0, 2*len(se.jobIDs)+1)
	for _, jid := range se.jobIDs {
		delete(r.jobs, jid)
		refs = append(refs, recordRef{KindJob, jid}, recordRef{KindCheckpoint, jid})
	}
	delete(r.sessions, id)
	refs = append(refs, recordRef{KindSession, id})
	if de, ok := r.datasets[se.datasetID]; ok {
		de.sessions--
		if de.lastUsed.Before(now) {
			de.lastUsed = now // dataset TTL counts from the last session's end
		}
	}
	return refs
}

// Close drains the registry, waits for every job to wind down (their
// final records are persisted on the way out), and releases all
// sessions, backends and the store. A durable store keeps its files;
// the next process restores from them. Close is idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	if r.janitorEnd != nil {
		close(r.janitorEnd) // r.closed guards against a double close
	}
	r.mu.Unlock()

	r.BeginDrain()
	r.jobsWG.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, se := range r.sessions {
		se.sess.Close()
	}
	r.sessions = map[string]*sessionEntry{}
	r.jobs = map[string]*jobEntry{}
	for _, de := range r.datasets {
		for _, ev := range de.backends {
			ev.Close()
		}
	}
	r.datasets = map[string]*datasetEntry{}
	r.store.Close()
}

// buildDataset materializes the uploaded dataset. All failures wrap
// repro.ErrBadDataset or repro.ErrBadConfig (→ HTTP 400).
func buildDataset(req DatasetRequest) (*repro.Dataset, error) {
	switch req.Format {
	case FormatTable:
		d, err := repro.ReadDataset(strings.NewReader(req.Content))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", repro.ErrBadDataset, err)
		}
		return d, nil
	case FormatPED:
		if req.NumSNPs < 1 {
			return nil, fmt.Errorf("%w: ped uploads require num_snps (LINKAGE files do not carry the marker count)", repro.ErrBadConfig)
		}
		d, err := repro.ReadPEDDataset(strings.NewReader(req.Content), req.NumSNPs)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", repro.ErrBadDataset, err)
		}
		return d, nil
	case FormatPreset:
		switch req.Preset {
		case 51:
			return repro.Paper51Dataset(req.Seed)
		case 249:
			return repro.Paper249Dataset(req.Seed)
		}
		return nil, fmt.Errorf("%w: unknown preset %d (want 51 or 249)", repro.ErrBadConfig, req.Preset)
	}
	return nil, fmt.Errorf("%w: unknown dataset format %q (want %s, %s or %s)",
		repro.ErrBadConfig, req.Format, FormatTable, FormatPED, FormatPreset)
}

// datasetID derives the registry id from the dataset fingerprint.
func datasetID(d *repro.Dataset) string {
	return fmt.Sprintf("ds-%016x", d.Fingerprint())
}

// describeDataset computes the upload response: dimensions, status
// counts, and the per-SNP Hardy-Weinberg QC summary.
func describeDataset(id string, d *repro.Dataset) DatasetInfo {
	a, u, q := d.CountByStatus()
	info := DatasetInfo{
		ID:             id,
		NumSNPs:        d.NumSNPs(),
		NumIndividuals: d.NumIndividuals(),
		Affected:       a,
		Unaffected:     u,
		Unknown:        q,
	}
	const alpha = 0.05
	hwe := HWESummary{Group: "unaffected", Alpha: alpha, MinP: 1}
	rows := d.ByStatus(repro.Unaffected)
	if len(rows) == 0 {
		hwe.Group = "all"
		rows = nil // HWETest treats nil as everyone
	}
	for j := 0; j < d.NumSNPs(); j++ {
		res, err := d.HWETest(j, rows)
		if err != nil {
			continue // untyped SNP in this group: not testable
		}
		hwe.Tested++
		if res.PValue < alpha {
			hwe.Failing++
		}
		if res.PValue < hwe.MinP {
			hwe.MinP = res.PValue
			hwe.MinPSNP = d.SNPs[j].Name
		}
	}
	info.HWE = hwe
	return info
}
