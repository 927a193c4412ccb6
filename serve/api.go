// Package serve exposes the repro Session/Job API as a versioned HTTP
// service: dataset upload, session creation, background GA jobs with
// a streamed (SSE) progress feed, and evaluation-engine statistics.
//
// The wire surface is versioned under the /v1 path prefix:
//
//	POST   /v1/datasets            upload a dataset (table/ped/preset) → DatasetInfo
//	GET    /v1/datasets            list datasets (cursor pagination) → DatasetList
//	GET    /v1/datasets/{id}       dataset dimensions and HWE summary
//	POST   /v1/sessions            dataset id + backend options → SessionInfo
//	GET    /v1/sessions            list sessions (cursor pagination) → SessionList
//	GET    /v1/sessions/{id}       session configuration and live job count
//	GET    /v1/sessions/{id}/stats evaluation backend counters (cache hits, coalesced)
//	POST   /v1/sessions/{id}/jobs  GA config → background job (Session.Start)
//	GET    /v1/jobs                list jobs (?session=…&cursor=…&limit=…) → JobList
//	GET    /v1/jobs/{id}           job state, best-so-far, final (or persisted) result
//	GET    /v1/jobs/{id}/events    SSE stream of per-generation TraceEntry
//	DELETE /v1/jobs/{id}           cancel (Job.Stop) → partial result
//
// Server is the http.Handler, Registry the shared state behind it
// (lifecycles, idle eviction, per-session job limits, one memoizing
// evaluation backend per dataset+backend), and Client a typed Go
// client for every endpoint. Wire payloads reuse the facade types
// verbatim — repro.GAConfig in, repro.GAResult / repro.TraceEntry /
// repro.JobReport / repro.EngineReport out — whose json field names
// are stable by contract.
//
// Two seams make the server durable and operable. The Store interface
// (MemStore in memory, FSStore on disk) persists every dataset,
// session and job record: a server restarted on the same FSStore
// directory serves its datasets, sessions and finished job results
// again, and marks jobs that were running at crash time as
// JobInterrupted. The Middleware chain (AuthMiddleware,
// RateLimitMiddleware, LoggingMiddleware, Metrics.Middleware) wraps
// the routes with API-key auth, per-key token-bucket rate limiting,
// structured request logging and a /metrics counter endpoint — all
// wired through NewServer's functional options (WithStore, WithAuth,
// WithRateLimit, WithLogger, WithMetrics, WithMiddleware).
package serve

import (
	"errors"

	"repro"
	"repro/internal/cli"
)

// APIVersion is the wire version prefix every route carries.
const APIVersion = "v1"

// Dataset upload formats accepted by POST /v1/datasets.
const (
	// FormatTable is the repository's native text table (the ldgen
	// output format): header with SNP names, one row per individual.
	FormatTable = "table"
	// FormatPED is the LINKAGE "pre-makeped" pedigree layout the
	// original EH-DIALL tool chain consumed; requires NumSNPs.
	FormatPED = "ped"
	// FormatPreset instantiates a built-in synthetic study (51 or
	// 249 SNPs, the paper's two shapes) from Preset and Seed.
	FormatPreset = "preset"
)

// DatasetRequest is the body of POST /v1/datasets.
type DatasetRequest struct {
	// Format is one of FormatTable, FormatPED, FormatPreset.
	Format string `json:"format"`
	// Content is the file payload for table and ped uploads.
	Content string `json:"content,omitempty"`
	// NumSNPs is the marker count of a ped upload (LINKAGE files do
	// not carry it).
	NumSNPs int `json:"num_snps,omitempty"`
	// Preset selects the synthetic study shape: 51 or 249.
	Preset int `json:"preset,omitempty"`
	// Seed drives the synthetic generator (preset uploads only).
	Seed uint64 `json:"seed,omitempty"`
}

// HWESummary condenses the per-SNP Hardy-Weinberg QC of an uploaded
// dataset: how many markers fail the test at Alpha, and the worst
// offender. The test runs on the unaffected group when the dataset
// has one (the case/control convention), otherwise on everyone.
type HWESummary struct {
	// Group is the individuals the test ran on: "unaffected" or
	// "all".
	Group string `json:"group"`
	// Alpha is the significance threshold counted against (0.05).
	Alpha float64 `json:"alpha"`
	// Tested is the number of markers with enough typed genotypes to
	// test.
	Tested int `json:"tested"`
	// Failing is the number of tested markers with p < Alpha.
	Failing int `json:"failing"`
	// MinP is the smallest p-value observed.
	MinP float64 `json:"min_p"`
	// MinPSNP names the marker carrying MinP (empty when nothing was
	// testable).
	MinPSNP string `json:"min_p_snp,omitempty"`
}

// DatasetInfo describes a registered dataset. ID is derived from the
// dataset fingerprint (genotype.Dataset.Fingerprint), so uploading
// identical content twice yields the same id — and shares the same
// memoized fitness cache.
type DatasetInfo struct {
	// ID is the fingerprint-derived dataset id ("ds-" + 16 hex
	// digits), usable in every dataset_id field.
	ID string `json:"id"`
	// NumSNPs is the marker count.
	NumSNPs int `json:"num_snps"`
	// NumIndividuals is the row count.
	NumIndividuals int `json:"num_individuals"`
	// Affected counts case individuals.
	Affected int `json:"affected"`
	// Unaffected counts control individuals.
	Unaffected int `json:"unaffected"`
	// Unknown counts individuals of unknown status.
	Unknown int `json:"unknown"`
	// HWE is the per-SNP Hardy-Weinberg QC summary computed at
	// upload.
	HWE HWESummary `json:"hwe"`
}

// SessionRequest is the body of POST /v1/sessions.
type SessionRequest struct {
	// DatasetID is the fingerprint-derived id of a registered
	// dataset.
	DatasetID string `json:"dataset_id"`
	// Backend is "native" (default), "pool" or "pvm".
	Backend string `json:"backend,omitempty"`
	// Workers sizes the evaluation pool (0 = one per CPU).
	Workers int `json:"workers,omitempty"`
	// Statistic is the CLUMP fitness: "T1" (default) … "T4".
	Statistic string `json:"statistic,omitempty"`
	// ShardSize, when at least 1, gives the session a sharded
	// evaluation backend (repro.WithShardSize): the dataset's SNP
	// columns are partitioned into shards of this many columns, loaded
	// on demand — and spilled to disk when the server runs with a spill
	// directory — so large tables never fully reside in memory. Values
	// are bit-identical to the monolithic backend. Only the native
	// backend shards; combining with "pool" or "pvm" is a bad_request.
	// Sharded sessions are the ones that accept sweep jobs (see
	// JobRequest.Sweep).
	ShardSize int `json:"shard_size,omitempty"`
}

// SessionInfo describes a live session.
type SessionInfo struct {
	// ID is the session id ("s-" + sequence number).
	ID string `json:"id"`
	// DatasetID names the dataset the session studies.
	DatasetID string `json:"dataset_id"`
	// Backend is the evaluation backend name ("native", "pool",
	// "pvm").
	Backend string `json:"backend"`
	// Workers is the actual evaluation pool size.
	Workers int `json:"workers"`
	// Statistic is the CLUMP fitness name ("T1".."T4").
	Statistic string `json:"statistic"`
	// MaxJobs is the per-session concurrent job cap; Start beyond it
	// returns 429.
	MaxJobs int `json:"max_jobs"`
	// ActiveJobs is the number of jobs currently running.
	ActiveJobs int `json:"active_jobs"`
	// ShardSize is the session backend's SNP columns per shard; 0 (and
	// omitted) for a monolithic backend.
	ShardSize int `json:"shard_size,omitempty"`
}

// JobRequest is the body of POST /v1/sessions/{id}/jobs. Config zero
// fields take the paper's §5.2.1 defaults; the function-valued Config
// fields do not exist on the wire.
type JobRequest struct {
	// Config is the GA configuration; its json field names are the
	// repro.GAConfig wire tags.
	Config repro.GAConfig `json:"config"`
	// Islands, when at least 1, runs the job on the asynchronous
	// island-model engine with that many islands (repro.WithIslands):
	// the per-size subpopulations are partitioned across islands that
	// evolve concurrently and exchange elites over a conflating
	// migration ring. 0 (the default) keeps the synchronous engine.
	// Counts beyond the number of haplotype sizes are clamped. An
	// island job's SSE stream interleaves per-island entries (see
	// EventGeneration) and its report/result carry per-island
	// breakdowns (repro.JobReport.Islands, repro.GAResult.Islands).
	Islands int `json:"islands,omitempty"`
	// MigrationInterval and MigrationCount tune the island ring
	// (repro.WithMigration): every MigrationInterval of its own
	// generations an island ships its best MigrationCount members per
	// hosted subpopulation to the next island. Zero values take the
	// defaults (10 and 1); setting either without Islands >= 1 is a
	// bad_request.
	MigrationInterval int `json:"migration_interval,omitempty"`
	// MigrationCount is documented with MigrationInterval above.
	MigrationCount int `json:"migration_count,omitempty"`
	// Race, when set, makes the job a portfolio race instead of a
	// single GA run: every lane (an optimizer x statistic
	// configuration) searches concurrently over the session's shared
	// memoizing backend, with a live leaderboard and optional early
	// cancellation of trailing lanes (see repro.RaceSpec for the
	// policy knobs). Lanes on the session's own statistic share its
	// warmed cache; other statistics get session-owned engines. When
	// the spec's own config is null, Config above configures the GA
	// lanes. Combining with Sweep, Islands or the migration fields is
	// a bad_request. The outcome is JobInfo.Race (a race has no
	// GAResult); DELETE returns the partial best-so-far per lane, and
	// lanes cut by the policy carry state "canceled_by_race".
	Race *repro.RaceSpec `json:"race,omitempty"`
	// Sweep, when set, makes the job a sharded window sweep instead of
	// a GA run: every haplotype window of the session's dataset is
	// scored shard by shard, with progress checkpointed through the
	// server's store after each completed shard — a server restarted
	// mid-sweep resumes the job from its last completed shard instead
	// of marking it interrupted. Requires a sharded session
	// (SessionRequest.ShardSize >= 1); combining with Islands or the
	// migration fields is a bad_request, and Config is ignored (a
	// sweep runs no GA). The outcome is JobInfo.Sweep (a sweep has no
	// GAResult).
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// SweepSpec configures a sweep job: the window shape scanned over the
// dataset.
type SweepSpec struct {
	// Size is the window width in SNPs (default 2, max 20).
	Size int `json:"size,omitempty"`
	// Stride is the step between window anchors (default 1). Anchors
	// are global multiples of Stride, so the window set is independent
	// of the shard size.
	Stride int `json:"stride,omitempty"`
}

// RaceInfo is the race section of a racing job's status document
// (JobInfo.Race): the latest leaderboard while running, plus the
// final result once the race has ended.
type RaceInfo struct {
	// Board is the latest leaderboard snapshot: ranked lanes with
	// their per-lane state, best-so-far, evaluations spent, and
	// shared-cache hits.
	Board repro.RaceBoard `json:"board"`
	// Result is the race's outcome, set once State is not "running"
	// (partial for "canceled": cut and canceled lanes keep their
	// best-so-far).
	Result *repro.RaceResult `json:"result,omitempty"`
}

// ShardProgress is the live shard bookkeeping of a sweep job
// (JobInfo.Shards).
type ShardProgress struct {
	// Total is the plan's shard count.
	Total int `json:"total"`
	// Done is the shards completed so far (checkpoint-resumed ones
	// included).
	Done int `json:"done"`
	// Resumed counts shards restored from a checkpoint instead of
	// evaluated in this server's lifetime (set once the sweep ends).
	Resumed int `json:"resumed,omitempty"`
	// Evaluated counts windows evaluated in this server's lifetime.
	Evaluated int64 `json:"evaluated"`
}

// Job states reported by JobInfo.State.
const (
	JobRunning  = "running"
	JobDone     = "done"     // finished normally; Result is final
	JobCanceled = "canceled" // stopped via DELETE or drain; Result is partial
	JobFailed   = "failed"   // terminated with a non-cancellation error
	// JobInterrupted marks a job whose record was restored from a
	// durable Store still in state "running": the previous process
	// died before the run finished, so no result was ever persisted.
	// Resubmit the job to recompute.
	JobInterrupted = "interrupted"
)

// JobInfo is the job status document of GET /v1/jobs/{id}: the live
// report while running, plus the result once the run has ended.
type JobInfo struct {
	// ID is the job id ("j-" + sequence number).
	ID string `json:"id"`
	// SessionID names the session the job runs on.
	SessionID string `json:"session_id"`
	// State is one of JobRunning, JobDone, JobCanceled, JobFailed.
	State string `json:"state"`
	// Report is the live snapshot (Job.Report): latest generation,
	// best-so-far, elapsed time, engine counters.
	Report repro.JobReport `json:"report"`
	// Result is set once State is not "running". For "canceled" it is
	// the partial outcome accumulated before the stop. Sweep jobs have
	// no GAResult; their outcome is Sweep.
	Result *repro.GAResult `json:"result,omitempty"`
	// Shards carries a sweep job's shard progress (nil for GA jobs).
	Shards *ShardProgress `json:"shards,omitempty"`
	// Sweep is a sweep job's outcome, set once State is not "running"
	// (partial for "canceled"; every completed shard is final).
	Sweep *repro.SweepResult `json:"sweep,omitempty"`
	// Race carries a racing job's leaderboard and, once ended, its
	// result (nil for GA and sweep jobs).
	Race *RaceInfo `json:"race,omitempty"`
	// Error is the terminal error text for "canceled" and "failed".
	Error string `json:"error,omitempty"`
}

// DatasetList is the body of GET /v1/datasets: one page of dataset
// descriptions, sorted by id.
type DatasetList struct {
	// Datasets is the page of dataset descriptions.
	Datasets []DatasetInfo `json:"datasets"`
	// NextCursor, when non-empty, is the cursor of the next page:
	// pass it as ?cursor= to continue the listing. Empty means the
	// listing is exhausted.
	NextCursor string `json:"next_cursor,omitempty"`
}

// SessionList is the body of GET /v1/sessions: one page of live
// session descriptions, sorted by id.
type SessionList struct {
	// Sessions is the page of session descriptions.
	Sessions []SessionInfo `json:"sessions"`
	// NextCursor is the pagination cursor; see DatasetList.NextCursor.
	NextCursor string `json:"next_cursor,omitempty"`
}

// JobList is the body of GET /v1/jobs: one page of job status
// documents — live and restored — sorted by id, optionally filtered
// to one session with ?session=.
type JobList struct {
	// Jobs is the page of job status documents.
	Jobs []JobInfo `json:"jobs"`
	// NextCursor is the pagination cursor; see DatasetList.NextCursor.
	NextCursor string `json:"next_cursor,omitempty"`
}

// EngineTotals sums the evaluation counters of every shared backend
// in the process — the evaluations section of the /metrics document.
type EngineTotals struct {
	// Datasets is the number of registered datasets.
	Datasets int `json:"datasets"`
	// Sessions is the number of live sessions.
	Sessions int `json:"sessions"`
	// Backends is the number of shared evaluation backends alive.
	Backends int `json:"backends"`
	// Requests sums requested scores across backends.
	Requests int64 `json:"requests"`
	// Computed sums pipeline evaluations actually performed.
	Computed int64 `json:"computed"`
	// CacheHits sums requests served from the memoizing caches.
	CacheHits int64 `json:"cache_hits"`
	// Coalesced sums requests that joined an in-flight computation.
	Coalesced int64 `json:"coalesced"`
	// CacheEntries sums the current memoized fitness values.
	CacheEntries int `json:"cache_entries"`
	// CacheBytes sums the memory the memoizing caches hold.
	CacheBytes int `json:"cache_bytes"`
	// StoreFailures counts record writes or deletes the durable store
	// rejected with an I/O error — outcomes that may not survive a
	// restart. Always 0 on the in-memory defaults; nonzero values
	// deserve an operator's attention (each is also logged).
	StoreFailures int64 `json:"store_failures"`
}

// SessionStats is the body of GET /v1/sessions/{id}/stats. Engine is
// null when the session's backend does not track counters (the
// master/slave fidelity backends); the derived ratios are 0 then.
// Backends are shared per dataset+backend+statistic+workers, so the
// counters aggregate over every session on the same study — cache
// hits from one user's run accelerate the next user's.
type SessionStats struct {
	// SessionID names the session the stats were requested for.
	SessionID string `json:"session_id"`
	// Engine carries the shared backend's cumulative counters (null
	// for untracked backends).
	Engine *repro.EngineReport `json:"engine"`
	// HitRate is the cache hit fraction of all requests, derived
	// from Engine (0 when Engine is null).
	HitRate float64 `json:"hit_rate"`
	// Throughput is the computed evaluations per second, derived
	// from Engine (0 when Engine is null).
	Throughput float64 `json:"throughput"`
}

// SSE event names on GET /v1/jobs/{id}/events.
//
// Every subscriber owns an independent buffered channel fed by the
// job's single progress pump; when a subscriber's buffer fills, its
// oldest entry is dropped to make room (per-subscriber conflation).
// A slow client therefore misses old generations — never new ones —
// and can never block the GA, the pump, or any other subscriber.
//
// The stream carries the same drain-to-close guarantee as
// repro.Job.Progress: the server closes a subscriber only after the
// run has finished and its result is available, so the terminating
// EventDone always reports a finished job — State is never "running",
// and Result is set (final for "done", partial for "canceled"). A
// client that reads to the end of the stream needs no follow-up GET
// to observe the outcome.
const (
	// EventGeneration carries one repro.TraceEntry. For an
	// island-model job (JobRequest.Islands >= 1) the stream
	// interleaves every island's entries; each is stamped with its
	// island number and covers only the sizes that island hosts, and
	// ordering is guaranteed only within one island's entries.
	EventGeneration = "generation"
	// EventLeaderboard carries one repro.RaceBoard: the conflated
	// leaderboard stream of a racing job (JobRequest.Race). Racing
	// jobs emit leaderboard frames instead of generation frames; the
	// Seq field is monotone, so a resumed stream deduplicates by it.
	EventLeaderboard = "leaderboard"
	// EventDone carries the final JobInfo and ends the stream; per
	// the drain-to-close guarantee above it always reports a
	// finished state.
	EventDone = "done"
)

// Event is one server-sent event as surfaced by Client.StreamEvents.
type Event struct {
	Type  string            // EventGeneration, EventLeaderboard or EventDone
	Entry *repro.TraceEntry // set for EventGeneration
	Board *repro.RaceBoard  // set for EventLeaderboard
	Job   *JobInfo          // set for EventDone
}

// ErrorBody is the JSON error envelope every non-2xx response uses.
type ErrorBody struct {
	// Error carries the code and message.
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the code + message payload of ErrorBody.
type ErrorDetail struct {
	// Code is a stable machine-readable string (one of the Code*
	// constants below).
	Code string `json:"code"`
	// Message is human-readable detail; its text is not a contract.
	Message string `json:"message"`
}

// Stable error codes of ErrorDetail.Code.
const (
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	CodeBusy       = "busy"     // per-session job limit reached
	CodeDraining   = "draining" // server is shutting down; reads still work
	CodeInternal   = "internal"
	// CodeUnauthorized: the request carried no API key, or an unknown
	// one, on a server running AuthMiddleware (HTTP 401).
	CodeUnauthorized = "unauthorized"
	// CodeForbidden: the API key is valid but its scopes do not allow
	// the request's method (HTTP 403) — a read-only key used to POST.
	CodeForbidden = "forbidden"
	// CodeRateLimited: the key's token bucket is empty (HTTP 429);
	// the Retry-After response header says when to come back.
	CodeRateLimited = "rate_limited"
)

// Registry sentinels, mapped to HTTP statuses by the server and back
// to errors by the client (via APIError.Is).
var (
	// ErrNotFound: the dataset/session/job id is not registered (or
	// was evicted).
	ErrNotFound = errors.New("serve: not found")
	// ErrDraining: the server is draining; mutating requests are
	// rejected, reads and event streams still served.
	ErrDraining = errors.New("serve: draining")
	// ErrUnauthorized: missing or unknown API key (HTTP 401).
	ErrUnauthorized = errors.New("serve: unauthorized")
	// ErrForbidden: the API key's scopes do not allow the request
	// (HTTP 403).
	ErrForbidden = errors.New("serve: forbidden")
	// ErrRateLimited: the per-key rate limit rejected the request
	// (HTTP 429 with Retry-After).
	ErrRateLimited = errors.New("serve: rate limited")
)

// parseBackend and friends share the CLI's name mapping so the wire
// and the flags can never drift apart.
func parseBackend(name string) (repro.Backend, error) {
	if name == "" {
		return repro.BackendNative, nil
	}
	return cli.ParseBackend(name)
}

func parseStatistic(name string) (repro.Statistic, error) {
	if name == "" {
		return repro.DefaultStatistic, nil
	}
	return cli.ParseStatistic(name)
}
