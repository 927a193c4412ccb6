package engine

import (
	"bytes"
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

// flight is one in-flight computation of a canonical key, shared by
// every concurrent batch that misses on it (singleflight). The worker
// that computes the key fills value/err, publishes the outcome in the
// key's cache slot under the key's cache shard lock, and then closes
// done. done exists only once a follower joins: the first follower
// makes it under that lock, so a flight nobody follows costs no
// channel. Followers read value and err only after done is closed.
type flight struct {
	done  chan struct{} // guarded by the key's cache shard lock while the flight is pending
	value float64
	err   error
	idx   int32 // the flight's index in its cache shard's flight table; guarded like done
}

// unit is one distinct site set of a batch: what the caller keys and
// resolves and, when the batch leads the set, what the worker that
// computes it reads and publishes. A batch's units share one
// allocation.
type unit struct {
	sites      []int
	hash       uint64 // keyHash of the key
	koff, kend int32  // the key's bytes in the batch's arena
	how        uint8
	// flight holds the set's outcome. While the batch leads the set,
	// it is also the key's flight, shared by followers in other
	// batches.
	flight flight
}

// How a unit was resolved, for the engine's hit and coalesced tallies.
const (
	howComputed = iota
	howCached
	howCoalesced
)

// runJob is one batch's leader misses on the engine's run queue. The
// caller queues it at its first leader and extends it chunk by chunk
// while it keys the rest of the batch; a worker that claims an item
// computes units[item] and publishes it itself (outcome, cache entry,
// followers' wake-up). pending counts the unresolved items plus one
// hold the caller keeps until it has queued its last chunk, so done
// closes only once every item is resolved and no more can arrive.
type runJob struct {
	ctx   context.Context
	units []unit

	items  []int32 // queued unit indices; guarded by Engine.qmu
	next   int     // first unclaimed item; guarded by Engine.qmu
	queued bool    // on the run queue; guarded by Engine.qmu

	pending atomic.Int64
	done    chan struct{}
}

// resolve counts one item (or the caller's hold) resolved and closes
// done on the last.
func (j *runJob) resolve() {
	if j.pending.Add(-1) == 0 {
		close(j.done)
	}
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
		j, u, ok := e.claim()
		if !ok {
			return
		}
		// A cancelled batch withdraws what is still queued; an item
		// claimed just before the cancellation is dropped here.
		err := j.ctx.Err()
		var v float64
		if err == nil {
			v, err = eval(j.units[u].sites)
			e.perWorker[id].Add(1)
		}
		e.publish(j, u, v, err)
	}
}

// extend adds leaders to j and puts j on the run queue if it is not
// there, waking as many idle workers as it added items. On a closed
// engine the leaders resolve with ErrClosed instead. The caller holds
// e.mu for reading.
func (e *Engine) extend(j *runJob, leaders []int32) {
	j.pending.Add(int64(len(leaders)))
	if e.closed {
		for _, u := range leaders {
			e.publish(j, u, 0, ErrClosed)
		}
		return
	}
	e.qmu.Lock()
	j.items = append(j.items, leaders...)
	if !j.queued {
		e.queue = append(e.queue, j)
		j.queued = true
	}
	e.qmu.Unlock()
	for n := min(len(leaders), e.workers); n > 0; n-- {
		e.qcond.Signal()
	}
}

// claim blocks until an item is queued and takes it, round-robin
// across the queued jobs so concurrent batches interleave item by
// item. A job whose items are all claimed leaves the queue until its
// batch extends it again. claim reports false once the engine is
// closed.
func (e *Engine) claim() (*runJob, int32, bool) {
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
	u := j.items[j.next]
	j.next++
	if j.next == len(j.items) {
		e.dequeueLocked(e.rr) // rr now names the following job
		j.queued = false
	} else {
		e.rr++
	}
	return j, u, true
}

// withdraw takes j's unclaimed items off the queue and resolves them
// with err; items a worker has already claimed still publish
// themselves. The caller extends j no further.
func (e *Engine) withdraw(j *runJob, err error) {
	e.qmu.Lock()
	rest := j.items[j.next:]
	j.next = len(j.items)
	if j.queued {
		for q, qj := range e.queue {
			if qj == j {
				e.dequeueLocked(q)
				break
			}
		}
		j.queued = false
	}
	e.qmu.Unlock()
	for _, u := range rest {
		e.publish(j, u, 0, err)
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

// publish resolves unit u of j: the flight's outcome, then the key's
// cache slot (the value in place of the flight, or the slot's removal
// on an error), and finally, if a follower joined, its wake-up. The
// job's last item closes its done latch.
func (e *Engine) publish(j *runJob, u int32, v float64, err error) {
	it := &j.units[u]
	if done := e.cache.shard(it.hash).publish(it.hash, &it.flight, v, err); done != nil {
		close(done)
	}
	j.resolve()
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

// keyChunk is how many batch items the caller keys before it queues
// the leaders among them, so the workers start on a large batch while
// the caller keys the rest.
const keyChunk = 128

// EvaluateBatchContext scores a whole generation in one pass:
// duplicates are coalesced, memoized sets answered from the cache,
// sets already being computed by a concurrent batch joined in flight
// (singleflight), and only the genuinely novel sets go on the run
// queue for the workers. The caller keys the batch in chunks of
// keyChunk items and queues each chunk's novel sets as it goes, so
// the workers start on the first chunk while the caller keys the
// rest. Results are positional and the call returns only when every
// item is resolved — the synchronous barrier the GA's generational
// model expects.
//
// Cancelling ctx stops the batch promptly: keying stops at the next
// chunk and the items not yet keyed report ctx's error, unclaimed
// items are withdrawn from the run queue, evaluations already running
// complete, and every unstarted item reports ctx's error.
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

	b := newBatchKeys(e, batch)
	// Key the batch chunk by chunk: serve cache hits, join the
	// computations a concurrent batch already has in flight, and queue
	// the novel sets on this batch's job as soon as their chunk is
	// keyed. Every flight this batch leads must be published on every
	// path, or its followers would block forever.
	var j *runJob
	cut := len(batch) // items from cut on were never keyed
	for lo := 0; lo < len(batch); lo += keyChunk {
		if lo > 0 && ctx.Err() != nil {
			cut = lo
			break
		}
		leaders := b.key(lo, min(lo+keyChunk, len(batch)))
		if len(leaders) > 0 {
			if j == nil {
				j = e.newJob(ctx, b.units)
			}
			e.extend(j, leaders)
		}
	}
	e.finish(ctx, j)

	// Collect the followed flights; each wakes as soon as its own key
	// is published. A flight that ends with its leader's context error
	// while this batch is still live is led again: another batch's
	// cancellation must not fail this one. Each round makes progress:
	// a retried set either hits the cache, resolves as a leader, or
	// joins a strictly newer flight.
	for len(b.followers) > 0 {
		retry := b.leaders[:0] // keying is over: reuse its scratch
		for _, fw := range b.followers {
			it := &b.units[fw.u]
			select {
			case <-fw.f.done:
				if fw.f.err != nil && ctx.Err() == nil &&
					(errors.Is(fw.f.err, context.Canceled) || errors.Is(fw.f.err, context.DeadlineExceeded)) {
					retry = append(retry, fw.u)
					continue
				}
				it.flight.value, it.flight.err = fw.f.value, fw.f.err
				it.how = howCoalesced
			case <-ctx.Done():
				it.flight.err = ctx.Err()
			}
		}
		b.followers = b.followers[:0]
		j = nil
		if leaders := b.retry(retry); len(leaders) > 0 {
			j = e.newJob(ctx, b.units)
			e.extend(j, leaders)
		}
		e.finish(ctx, j)
	}

	for i, u := range b.index[:cut] {
		it := &b.units[u]
		switch it.how {
		case howCached:
			e.hits.Add(1)
		case howCoalesced:
			e.coalesced.Add(1)
		}
		values[i], errs[i] = it.flight.value, it.flight.err
	}
	for i := cut; i < len(batch); i++ {
		errs[i] = ctx.Err()
	}
	return values, errs
}

// newJob starts a batch's job over its units. It holds e.mu for
// reading until finish, which orders Close after the job.
func (e *Engine) newJob(ctx context.Context, units []unit) *runJob {
	e.mu.RLock()
	j := &runJob{ctx: ctx, units: units, done: make(chan struct{})}
	j.pending.Store(1) // the caller's hold, dropped by finish
	return j
}

// finish drops the caller's hold on j (nil: the batch led nothing) and
// parks until every item is resolved. If ctx is cancelled first, the
// unclaimed items are withdrawn and resolve with ctx's error, and
// finish waits only for the evaluations already running.
func (e *Engine) finish(ctx context.Context, j *runJob) {
	if j == nil {
		return
	}
	defer e.mu.RUnlock()
	j.resolve()
	select {
	case <-j.done:
	case <-ctx.Done():
		e.withdraw(j, ctx.Err())
		<-j.done
	}
}

// follower is a unit of the batch waiting on another batch's flight.
// The flight's done channel is set before lookup returns it and never
// changes afterwards.
type follower struct {
	u int32
	f *flight
}

// batchKeys is one batch's keying state. Every distinct key lives once
// in one byte arena; duplicates are found by an open-addressing table
// over the arena, so keying allocates nothing per item.
type batchKeys struct {
	e     *Engine
	batch [][]int
	units []unit  // distinct sets in first-seen order; the first nu are keyed
	nu    int     // units keyed so far
	index []int32 // batch item -> unit
	arena []byte
	probe []int32 // dedupe table: unit+1, 0 = empty; len is a power of two

	leaders   []int32 // scratch: the chunk's leaders, then the retried units
	followers []follower
}

func newBatchKeys(e *Engine, batch [][]int) *batchKeys {
	n := len(batch)
	size := 2
	for size < 2*n {
		size *= 2
	}
	return &batchKeys{
		e:     e,
		batch: batch,
		units: make([]unit, n),
		index: make([]int32, n),
		arena: make([]byte, 0, n*(8+4*len(batch[0]))),
		probe: make([]int32, size),
	}
}

// key keys batch items [lo, hi): canonical sites, key bytes, dedupe,
// and one cache lookup for every new distinct set, which settles it as
// a hit, a follower of another batch's flight, or a leader. It returns
// the chunk's leaders.
func (b *batchKeys) key(lo, hi int) []int32 {
	e := b.e
	leaders := b.leaders[:0]
	for i := lo; i < hi; i++ {
		sites := fitness.CanonicalSites(b.batch[i])
		fp := e.fingerprint
		if e.keyFP != nil {
			fp = e.keyFP(sites)
		}
		off := len(b.arena)
		b.arena = appendKey(b.arena, fp, sites)
		k := b.arena[off:]
		h := keyHash(k)
		u, fresh := b.dedupe(h, k)
		b.index[i] = u
		if !fresh {
			b.arena = b.arena[:off]
			continue
		}
		it := &b.units[u]
		it.sites, it.hash, it.koff, it.kend = sites, h, int32(off), int32(len(b.arena))
		if b.settle(u) {
			leaders = append(leaders, u)
		}
	}
	b.leaders = leaders
	return leaders
}

// settle looks unit u up in the cache: a hit takes the value, a key in
// flight makes u a follower of that flight, and a new key makes u its
// leader, which settle reports.
func (b *batchKeys) settle(u int32) bool {
	it := &b.units[u]
	f, v, hit := b.e.cache.shard(it.hash).lookup(it.hash, b.keyBytes(u), &it.flight)
	switch {
	case f != nil:
		b.followers = append(b.followers, follower{u: u, f: f})
		b.e.joins.Add(1)
	case hit:
		it.flight.value, it.how = v, howCached
	default:
		return true
	}
	return false
}

// keyBytes returns unit u's key in the arena.
func (b *batchKeys) keyBytes(u int32) []byte {
	it := &b.units[u]
	return b.arena[it.koff:it.kend]
}

// dedupe finds the unit keyed k (hash h) or claims the next unit for
// it, reporting whether it is new.
func (b *batchKeys) dedupe(h uint64, k []byte) (int32, bool) {
	mask := uint64(len(b.probe) - 1)
	for p := h & mask; ; p = (p + 1) & mask {
		s := b.probe[p]
		if s == 0 {
			u := int32(b.nu)
			b.nu++
			b.probe[p] = u + 1
			return u, true
		}
		if b.units[s-1].hash == h && bytes.Equal(b.keyBytes(s-1), k) {
			return s - 1, false
		}
	}
}

// retry settles again the units whose followed flight a cancelled
// batch ended, filtering them in place down to the ones this batch now
// leads.
func (b *batchKeys) retry(units []int32) []int32 {
	leaders := units[:0]
	for _, u := range units {
		b.units[u].flight = flight{}
		if b.settle(u) {
			leaders = append(leaders, u)
		}
	}
	return leaders
}

// Report returns the engine's cumulative counters.
func (e *Engine) Report() fitness.Report {
	pw := make([]int64, len(e.perWorker))
	var computed int64
	for i := range e.perWorker {
		pw[i] = e.perWorker[i].Load()
		computed += pw[i]
	}
	entries, cacheBytes := e.cache.size()
	return fitness.Report{
		Requests:     e.requests.Load(),
		Computed:     computed,
		CacheHits:    e.hits.Load(),
		Coalesced:    e.coalesced.Load(),
		CacheEntries: entries,
		CacheBytes:   cacheBytes,
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
