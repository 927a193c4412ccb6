package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
	"repro/internal/genotype"
)

// ErrClosed is returned when evaluating through a closed engine. It
// wraps fitness.ErrEvaluatorClosed.
var ErrClosed = fmt.Errorf("engine: %w", fitness.ErrEvaluatorClosed)

// Options configures an Engine. The zero value is a sensible default.
type Options struct {
	// Workers is the goroutine pool size (0 = one per CPU).
	Workers int
	// Fingerprint is mixed into every cache key; pass the dataset's
	// genotype Fingerprint. New sets it automatically when the inner
	// evaluator is a *fitness.Pipeline.
	Fingerprint uint64
}

// KeyFingerprinter is implemented by inner evaluators that derive
// their own cache-key fingerprint per site set (the shard-aware
// evaluator keys the memo cache by fingerprint+range, so entries
// group by the shards they touch). When the inner evaluator
// implements it, New uses it in place of Options.Fingerprint.
type KeyFingerprinter interface {
	// KeyFingerprint returns the cache-key fingerprint of a canonical
	// site set. It must be pure and safe for concurrent use; it
	// selects keys only and never changes the values cached under
	// them.
	KeyFingerprint(sites []int) uint64
}

type slot struct {
	value float64
	err   error
}

// flight is one in-flight computation of a canonical key, shared by
// every concurrent batch that misses on it (singleflight). The worker
// that computes the key closes done after filling value/err; followers
// only read afterwards.
type flight struct {
	done  chan struct{}
	value float64
	err   error
}

// runJob is one batch's leader misses on the engine's run queue. The
// batch owns the tables; a worker that claims item i computes
// sites[items[i]] and publishes it itself (slot, cache entry, flight),
// and the last item to resolve closes done.
type runJob struct {
	ctx     context.Context
	items   []int
	sites   [][]int
	keys    []string
	flights []*flight
	slots   []slot

	next    int // first unclaimed item; guarded by Engine.qmu
	pending atomic.Int64
	done    chan struct{}
}

// Engine is the native concurrent evaluator: a worker pool over an
// inner evaluator with a memoizing, sharded fitness cache. It is safe
// for concurrent use; independent batches proceed in parallel rather
// than serializing as the master.Pool backend does.
type Engine struct {
	inner       fitness.Evaluator
	workers     int
	cache       *shardedCache
	fingerprint uint64
	keyFP       func(sites []int) uint64 // nil: use the flat fingerprint
	start       time.Time

	requests  atomic.Int64
	hits      atomic.Int64
	coalesced atomic.Int64
	// joins ticks when a batch registers as follower of an in-flight
	// computation, before the outcome is known (coalesced counts only
	// followers that actually used the shared result). Diagnostic
	// only; tests use it to observe the join deterministically.
	joins     atomic.Int64
	perWorker []atomic.Int64

	// flightMu guards inflight, the singleflight table of cache keys
	// currently being computed by some batch.
	flightMu sync.Mutex
	inflight map[string]*flight

	// qmu guards the run queue: the jobs with unclaimed items, in
	// arrival order, and rr, the index of the job the next claim is
	// taken from. Workers sleep on qcond while the queue is empty.
	qmu   sync.Mutex
	qcond sync.Cond
	queue []*runJob
	rr    int

	// mu orders Close after every batch: a batch holds it for reading
	// while its job is queued or running. Close writes closed under
	// both mu and qmu, so either lock guards a read.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup
}

// New starts an engine over an arbitrary inner evaluator. When inner
// is a *fitness.Pipeline and opts.Fingerprint is zero, the pipeline's
// dataset fingerprint is used automatically.
func New(inner fitness.Evaluator, opts Options) (*Engine, error) {
	if inner == nil {
		return nil, fmt.Errorf("engine: nil evaluator")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Fingerprint == 0 {
		if p, ok := inner.(*fitness.Pipeline); ok {
			opts.Fingerprint = p.Dataset().Fingerprint()
		}
	}
	e := &Engine{
		inner:       inner,
		workers:     opts.Workers,
		cache:       newShardedCache(),
		fingerprint: opts.Fingerprint,
		start:       time.Now(),
		perWorker:   make([]atomic.Int64, opts.Workers),
		inflight:    make(map[string]*flight),
	}
	if kf, ok := inner.(KeyFingerprinter); ok {
		e.keyFP = kf.KeyFingerprint
	}
	e.qcond.L = &e.qmu
	for i := 0; i < opts.Workers; i++ {
		e.wg.Add(1)
		go e.worker(i)
	}
	return e, nil
}

// NewForDataset builds the Figure 3 pipeline over the dataset and
// wraps it in an engine — the one-call constructor the facade and the
// CLIs use.
func NewForDataset(d *genotype.Dataset, stat clump.Statistic, opts Options) (*Engine, error) {
	pipe, err := fitness.NewPipeline(d, stat, ehdiall.Config{})
	if err != nil {
		return nil, err
	}
	if opts.Fingerprint == 0 {
		opts.Fingerprint = d.Fingerprint()
	}
	return New(pipe, opts)
}

// worker claims and scores queued items until the engine closes,
// tallying its own count. When the inner evaluator supports
// scratch-backed evaluation (the packed pipeline and the shard
// evaluator do), the worker owns one Scratch for its whole lifetime
// and routes every item through it, so the steady-state batch path
// allocates nothing per candidate.
func (e *Engine) worker(id int) {
	defer e.wg.Done()
	eval := e.inner.Evaluate
	if se, ok := e.inner.(fitness.ScratchEvaluator); ok {
		scr := fitness.NewScratch()
		eval = func(sites []int) (float64, error) { return se.EvaluateScratch(sites, scr) }
	}
	for {
		j, i, ok := e.claim()
		if !ok {
			return
		}
		// A cancelled batch withdraws what is still queued; an item
		// claimed just before the cancellation is dropped here.
		err := j.ctx.Err()
		var v float64
		if err == nil {
			v, err = eval(j.sites[j.items[i]])
			e.perWorker[id].Add(1)
		}
		e.publish(j, i, v, err)
	}
}

// enqueue puts a batch's job on the run queue and wakes as many idle
// workers as it has items.
func (e *Engine) enqueue(j *runJob) {
	e.qmu.Lock()
	e.queue = append(e.queue, j)
	e.qmu.Unlock()
	for n := min(len(j.items), e.workers); n > 0; n-- {
		e.qcond.Signal()
	}
}

// claim blocks until an item is queued and takes it, round-robin
// across the queued jobs so concurrent batches interleave item by
// item. It reports false once the engine is closed.
func (e *Engine) claim() (*runJob, int, bool) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	for len(e.queue) == 0 {
		if e.closed {
			return nil, 0, false
		}
		e.qcond.Wait()
	}
	if e.rr >= len(e.queue) {
		e.rr = 0
	}
	j := e.queue[e.rr]
	i := j.next
	j.next++
	if j.next == len(j.items) {
		e.dequeueLocked(e.rr) // rr now names the following job
	} else {
		e.rr++
	}
	return j, i, true
}

// withdraw takes j's unclaimed items off the queue (all of them, if j
// was never queued) and resolves them with err; items a worker has
// already claimed still publish themselves.
func (e *Engine) withdraw(j *runJob, err error) {
	e.qmu.Lock()
	first := j.next
	if first < len(j.items) {
		for q, qj := range e.queue {
			if qj == j {
				e.dequeueLocked(q)
				break
			}
		}
		j.next = len(j.items)
	}
	e.qmu.Unlock()
	for i := first; i < len(j.items); i++ {
		e.publish(j, i, 0, err)
	}
}

// dequeueLocked removes queue[q], keeping the round-robin cursor on
// the job that followed it. e.qmu must be held.
func (e *Engine) dequeueLocked(q int) {
	copy(e.queue[q:], e.queue[q+1:])
	e.queue[len(e.queue)-1] = nil
	e.queue = e.queue[:len(e.queue)-1]
	if e.rr > q {
		e.rr--
	}
}

// publish resolves item i of j: the slot, then the cache entry for a
// value, the flight's outcome, its removal from the in-flight table —
// cache before removal, so a batch that misses the flight finds the
// value — and finally the followers' wake-up. The last item of the
// job closes its done latch.
func (e *Engine) publish(j *runJob, i int, v float64, err error) {
	u := j.items[i]
	j.slots[u] = slot{value: v, err: err}
	if err == nil {
		e.cache.set(j.keys[u], v)
	}
	f := j.flights[u]
	f.value, f.err = v, err
	e.flightMu.Lock()
	delete(e.inflight, j.keys[u])
	e.flightMu.Unlock()
	close(f.done)
	if j.pending.Add(-1) == 0 {
		close(j.done)
	}
}

// Workers returns the worker pool size.
func (e *Engine) Workers() int { return e.workers }

// Slaves returns Workers; it lets the engine satisfy the facade's
// ParallelEvaluator interface alongside the master/PVM backends.
func (e *Engine) Slaves() int { return e.workers }

// Evaluate scores one haplotype through the batch path.
func (e *Engine) Evaluate(sites []int) (float64, error) {
	values, errs := e.EvaluateBatch([][]int{sites})
	return values[0], errs[0]
}

// EvaluateBatch scores a whole generation in one pass; it is
// EvaluateBatchContext with a background context.
func (e *Engine) EvaluateBatch(batch [][]int) ([]float64, []error) {
	return e.EvaluateBatchContext(context.Background(), batch) //ldvet:allow ctxflow: fitness.BatchEvaluator compat seam; cancellable callers use EvaluateBatchContext
}

// EvaluateBatchContext scores a whole generation in one pass:
// duplicates are coalesced, memoized sets answered from the cache,
// sets already being computed by a concurrent batch joined in flight
// (singleflight), and only the genuinely novel sets go on the run
// queue for the workers. Results are positional and the call returns
// only when every item is resolved — the synchronous barrier the GA's
// generational model expects.
//
// Cancelling ctx stops the batch promptly: its unclaimed items are
// withdrawn from the run queue, evaluations already running complete,
// and every unstarted item reports ctx's error.
func (e *Engine) EvaluateBatchContext(ctx context.Context, batch [][]int) ([]float64, []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	values := make([]float64, len(batch))
	errs := make([]error, len(batch))
	if len(batch) == 0 {
		return values, errs
	}
	e.requests.Add(int64(len(batch)))

	// Canonicalize, then coalesce identical sets.
	canon := make([][]int, len(batch))
	for i, sites := range batch {
		canon[i] = fitness.CanonicalSites(sites)
	}
	unique, index := fitness.Dedupe(canon)

	// Resolve every unique set: serve cache hits, join computations a
	// concurrent batch already has in flight (singleflight), and fan
	// the genuinely novel sets out to the workers. A follower whose
	// leader was cancelled retries — another batch's cancellation must
	// not fail this one — so resolution loops until every set has a
	// terminal outcome (value, real error, or this batch's own
	// cancellation). Each round makes progress: a retried set either
	// hits the cache, resolves as a leader, or joins a strictly newer
	// flight.
	uslots := make([]slot, len(unique))
	const (
		howComputed = iota
		howCached
		howCoalesced
	)
	how := make([]byte, len(unique))
	keys := make([]string, len(unique))
	flights := make([]*flight, len(unique))
	for u, sites := range unique {
		fp := e.fingerprint
		if e.keyFP != nil {
			fp = e.keyFP(sites)
		}
		keys[u] = cacheKey(fp, sites)
	}
	pending := make([]int, len(unique))
	for u := range pending {
		pending[u] = u
	}
	leaders := make([]int, 0, len(unique))
	var followers []int
	for len(pending) > 0 {
		leaders, followers = leaders[:0], followers[:0]
		fl := make([]flight, len(pending)) // this round's flights, one allocation
		for n, u := range pending {
			if v, ok := e.cache.get(keys[u]); ok {
				uslots[u] = slot{value: v}
				how[u] = howCached
				continue
			}
			e.flightMu.Lock()
			f, ok := e.inflight[keys[u]]
			if !ok {
				// A previous leader may have published (cache set,
				// flight removed — in that order, the removal under
				// this lock) between our cache miss above and this
				// lookup; re-check before leading, or the set would
				// be computed twice.
				if v, cached := e.cache.get(keys[u]); cached {
					e.flightMu.Unlock()
					uslots[u] = slot{value: v}
					how[u] = howCached
					continue
				}
				f = &fl[n]
				f.done = make(chan struct{})
				e.inflight[keys[u]] = f
			}
			e.flightMu.Unlock()
			flights[u] = f
			if ok {
				followers = append(followers, u)
				e.joins.Add(1)
			} else {
				leaders = append(leaders, u)
			}
		}

		// Queue the leader misses as one job; the workers compute and
		// publish each item. Every flight this batch leads must be
		// published on every path, or followers would block forever.
		if len(leaders) > 0 {
			e.runLeaders(ctx, &runJob{
				ctx: ctx, items: leaders, sites: unique,
				keys: keys, flights: flights, slots: uslots,
			})
		}

		// Collect the followed flights; each wakes as soon as its own
		// key is published. A flight that ends with its leader's
		// context error while this batch is still live goes back to
		// pending and is recomputed next round.
		pending = pending[:0]
		for _, u := range followers {
			f := flights[u]
			select {
			case <-f.done:
				if f.err != nil && ctx.Err() == nil &&
					(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
					pending = append(pending, u)
					continue
				}
				uslots[u] = slot{value: f.value, err: f.err}
				how[u] = howCoalesced
			case <-ctx.Done():
				uslots[u].err = ctx.Err()
			}
		}
	}

	for i, u := range index {
		switch how[u] {
		case howCached:
			e.hits.Add(1)
		case howCoalesced:
			e.coalesced.Add(1)
		}
		values[i], errs[i] = uslots[u].value, uslots[u].err
	}
	return values, errs
}

// runLeaders queues j and parks until every item is resolved. If ctx
// is cancelled first, the unclaimed items are withdrawn and resolve
// with ctx's error, and runLeaders waits only for the evaluations
// already running. On a closed engine every item resolves with
// ErrClosed.
func (e *Engine) runLeaders(ctx context.Context, j *runJob) {
	j.pending.Store(int64(len(j.items)))
	j.done = make(chan struct{})
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		e.withdraw(j, ErrClosed)
		return
	}
	e.enqueue(j)
	select {
	case <-j.done:
	case <-ctx.Done():
		e.withdraw(j, ctx.Err())
		<-j.done
	}
}

// Report returns the engine's cumulative counters.
func (e *Engine) Report() fitness.Report {
	pw := make([]int64, len(e.perWorker))
	var computed int64
	for i := range e.perWorker {
		pw[i] = e.perWorker[i].Load()
		computed += pw[i]
	}
	return fitness.Report{
		Requests:     e.requests.Load(),
		Computed:     computed,
		CacheHits:    e.hits.Load(),
		Coalesced:    e.coalesced.Load(),
		CacheEntries: e.cache.len(),
		Workers:      e.workers,
		PerWorker:    pw,
		Uptime:       time.Since(e.start),
	}
}

// Close stops the workers and waits for in-flight batches to drain.
// The engine cannot be reused afterwards; the cache is released.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.qmu.Lock()
	e.closed = true
	e.qmu.Unlock()
	e.qcond.Broadcast()
	e.wg.Wait()
}

// Interface conformance checks.
var (
	_ fitness.Evaluator             = (*Engine)(nil)
	_ fitness.BatchEvaluator        = (*Engine)(nil)
	_ fitness.ContextBatchEvaluator = (*Engine)(nil)
	_ fitness.Reporter              = (*Engine)(nil)
)
