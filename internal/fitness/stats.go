package fitness

import "time"

// Report aggregates the counters of an evaluation backend. All
// quantities are cumulative since the backend was constructed.
// Requests counts requested scores (one haplotype scored once);
// CacheHits and Coalesced likewise count requests — every in-batch
// duplicate of a cached (or coalesced) set is a hit (or coalesced)
// in its own right — while Computed counts pipeline evaluations, of
// which there is one per distinct novel set. The identity, up to
// in-flight work and failed evaluations, is therefore
//
//	Requests = CacheHits + Coalesced + Computed
//	         + in-batch duplicates of computed sets
//
// a request served from the memoization layer is a CacheHit, a
// request that waited on another batch's identical in-flight
// computation is Coalesced, and of the requests that fan out to the
// workers only the first occurrence of each set is Computed.
// The json field names are part of the public wire format (the
// serving layer's stats endpoint returns a Report verbatim) and are
// stable; Uptime is encoded in nanoseconds under "uptime_ns".
type Report struct {
	// Requests counts every score requested through Evaluate or
	// EvaluateBatch, including duplicates and cache hits. This matches
	// the paper's "number of evaluations" cost metric as seen by the
	// GA.
	Requests int64 `json:"requests"`
	// Computed counts the pipeline evaluations actually performed.
	Computed int64 `json:"computed"`
	// CacheHits counts requests served from the memoizing cache.
	CacheHits int64 `json:"cache_hits"`
	// Coalesced counts requests that piggybacked on an identical
	// computation already in flight for a concurrent batch
	// (singleflight), so the pipeline ran once for all of them.
	Coalesced int64 `json:"coalesced"`
	// CacheEntries is the current number of memoized fitness values.
	CacheEntries int `json:"cache_entries"`
	// CacheBytes is the memory the memoizing cache holds: its tables,
	// key bytes and in-flight bookkeeping.
	CacheBytes int `json:"cache_bytes"`
	// Workers is the size of the worker pool (0 for serial backends).
	Workers int `json:"workers"`
	// PerWorker splits Computed by the worker that performed it; its
	// length is Workers. A heavily skewed split indicates a
	// load-balancing problem.
	PerWorker []int64 `json:"per_worker"`
	// Uptime is the time since the backend was constructed.
	Uptime time.Duration `json:"uptime_ns"`
}

// HitRate returns the fraction of requests served from the cache, in
// [0, 1]. It is 0 before any request.
func (r Report) HitRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(r.Requests)
}

// Throughput returns the pipeline evaluations computed per second of
// uptime — the per-pool analogue of the paper's Figure 4 cost curve.
func (r Report) Throughput() float64 {
	if r.Uptime <= 0 {
		return 0
	}
	return float64(r.Computed) / r.Uptime.Seconds()
}

// WorkerThroughput returns Throughput divided by the worker count: the
// mean evaluations per second each worker sustained.
func (r Report) WorkerThroughput() float64 {
	if r.Workers == 0 {
		return 0
	}
	return r.Throughput() / float64(r.Workers)
}

// Reporter is implemented by evaluation backends that track their
// counters (the native engine does).
type Reporter interface {
	// Report returns the backend's cumulative counters.
	Report() Report
}
