package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
	"repro/internal/genotype"
	"repro/internal/popgen"
	"repro/internal/rng"
)

// countingEval is a deterministic inner evaluator that tallies real
// computations: fitness = sum of site indices.
type countingEval struct {
	calls atomic.Int64
}

func (c *countingEval) Evaluate(sites []int) (float64, error) {
	c.calls.Add(1)
	sum := 0.0
	for _, s := range sites {
		sum += float64(s)
	}
	return sum, nil
}

func newTestEngine(t *testing.T, opts Options) (*Engine, *countingEval) {
	t.Helper()
	inner := &countingEval{}
	e, err := New(inner, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e, inner
}

func TestEngineMatchesInner(t *testing.T) {
	e, _ := newTestEngine(t, Options{Workers: 4})
	batch := [][]int{{0, 1}, {2, 5, 9}, {1, 3}, {0, 1}}
	values, errs := e.EvaluateBatch(batch)
	want := []float64{1, 16, 4, 1}
	for i := range batch {
		if errs[i] != nil {
			t.Fatalf("item %d: %v", i, errs[i])
		}
		if values[i] != want[i] {
			t.Errorf("item %d: got %v, want %v", i, values[i], want[i])
		}
	}
}

func TestEngineCoalescesAndCaches(t *testing.T) {
	e, inner := newTestEngine(t, Options{Workers: 2})
	batch := [][]int{{0, 1}, {0, 1}, {2, 3}, {0, 1}}
	e.EvaluateBatch(batch)
	if got := inner.calls.Load(); got != 2 {
		t.Fatalf("first batch computed %d sets, want 2 (coalesced duplicates)", got)
	}
	// The same sets again: everything must come from the cache.
	e.EvaluateBatch(batch)
	if got := inner.calls.Load(); got != 2 {
		t.Fatalf("second batch computed %d sets, want still 2 (memoized)", got)
	}
	r := e.Report()
	if r.Requests != 8 || r.Computed != 2 {
		t.Errorf("report: requests %d computed %d, want 8 and 2", r.Requests, r.Computed)
	}
	if r.CacheHits != 4 {
		t.Errorf("report: cache hits %d, want 4 (the whole second batch)", r.CacheHits)
	}
	if r.HitRate() <= 0 {
		t.Errorf("hit rate %v, want > 0", r.HitRate())
	}
	if r.CacheEntries != 2 {
		t.Errorf("cache entries %d, want 2", r.CacheEntries)
	}
}

func TestCanonicalization(t *testing.T) {
	// Unordered and duplicated sites evaluate like their canonical
	// form and share its cache entry.
	e, inner := newTestEngine(t, Options{Workers: 1})
	v1, err := e.Evaluate([]int{4, 1, 9})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.Evaluate([]int{1, 4, 9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || v1 != 14 {
		t.Fatalf("canonical forms disagree: %v vs %v (want 14)", v1, v2)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1 (shared canonical key)", got)
	}
	if k1, k2 := appendKey(nil, 7, []int{1, 4, 9}), appendKey(nil, 8, []int{1, 4, 9}); string(k1) == string(k2) {
		t.Fatal("different dataset fingerprints produced the same cache key")
	}
}

func TestEngineConcurrentBatches(t *testing.T) {
	e, _ := newTestEngine(t, Options{Workers: 4})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				batch := [][]int{{g, g + 10}, {rep, rep + 40}, {g, g + 10}}
				values, errs := e.EvaluateBatch(batch)
				for i, err := range errs {
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					want := float64(batch[i][0] + batch[i][1])
					if values[i] != want {
						t.Errorf("goroutine %d: got %v, want %v", g, values[i], want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEngineErrorsNotCached(t *testing.T) {
	boom := errors.New("boom")
	fail := true
	var mu sync.Mutex
	inner := fitness.Func(func(sites []int) (float64, error) {
		mu.Lock()
		defer mu.Unlock()
		if fail {
			return 0, boom
		}
		return 1, nil
	})
	e, err := New(inner, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Evaluate([]int{1, 2}); !errors.Is(err, boom) {
		t.Fatalf("got %v, want boom", err)
	}
	mu.Lock()
	fail = false
	mu.Unlock()
	if v, err := e.Evaluate([]int{1, 2}); err != nil || v != 1 {
		t.Fatalf("after recovery: %v, %v (errors must not be cached)", v, err)
	}
}

func TestEngineClosed(t *testing.T) {
	e, _ := newTestEngine(t, Options{Workers: 2})
	e.Close()
	if _, err := e.Evaluate([]int{0, 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	e.Close() // idempotent
}

// gatedEval blocks every computation until release is closed, so tests
// can hold evaluations in flight deterministically.
type gatedEval struct {
	release chan struct{}
	calls   atomic.Int64
}

func (g *gatedEval) Evaluate(sites []int) (float64, error) {
	g.calls.Add(1)
	<-g.release
	sum := 0.0
	for _, s := range sites {
		sum += float64(s)
	}
	return sum, nil
}

func TestEvaluateBatchContextCancelUnblocks(t *testing.T) {
	inner := &gatedEval{release: make(chan struct{})}
	e, err := New(inner, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// A big batch: 2 evaluations enter the workers and block on the
	// gate, the rest queue behind them. Cancelling must return the
	// batch without waiting for the queued items.
	batch := make([][]int, 64)
	for i := range batch {
		batch[i] = []int{i, i + 100}
	}
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		values []float64
		errs   []error
	}
	res := make(chan outcome, 1)
	go func() {
		v, errs := e.EvaluateBatchContext(ctx, batch)
		res <- outcome{v, errs}
	}()
	// Wait until both workers hold an evaluation, then cancel.
	for inner.calls.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	// The batch must not resolve while the in-flight pair is still
	// gated... release them and the batch must come home promptly.
	close(inner.release)
	var oc outcome
	select {
	case oc = <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch did not return")
	}
	canceled, completed := 0, 0
	for i := range batch {
		switch {
		case oc.errs[i] == nil:
			completed++
		case errors.Is(oc.errs[i], context.Canceled):
			canceled++
		default:
			t.Fatalf("item %d: unexpected error %v", i, oc.errs[i])
		}
	}
	// The two gated evaluations were in flight and finish; the 62
	// queued items are withdrawn without reaching the evaluator.
	if completed != 2 || canceled != len(batch)-2 {
		t.Fatalf("completed %d, canceled %d; want 2 and %d", completed, canceled, len(batch)-2)
	}
	if total := inner.calls.Load(); total != 2 {
		t.Fatalf("inner evaluator called %d times, want 2", total)
	}
	if r := e.Report(); r.Computed != 2 {
		t.Fatalf("Report().Computed = %d, want 2", r.Computed)
	}
}

// orderEval records the order of its calls and blocks the first one
// until release is closed.
type orderEval struct {
	release chan struct{}
	mu      sync.Mutex
	order   [][]int
}

func (o *orderEval) Evaluate(sites []int) (float64, error) {
	o.mu.Lock()
	o.order = append(o.order, sites)
	first := len(o.order) == 1
	o.mu.Unlock()
	if first {
		<-o.release
	}
	return float64(len(sites)), nil
}

func (o *orderEval) calls() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.order)
}

func TestEngineRoundRobinAcrossBatches(t *testing.T) {
	inner := &orderEval{release: make(chan struct{})}
	e, err := New(inner, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Batch A's 64 sets hold the only worker, its first set gated;
	// batch B queues one set behind it. Round-robin claiming must
	// reach B's set within the next claims, not after all of A.
	a := make([][]int, 64)
	for i := range a {
		a[i] = []int{i, i + 100}
	}
	b := [][]int{{500, 600, 700}}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		e.EvaluateBatch(a)
	}()
	for inner.calls() < 1 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		defer wg.Done()
		e.EvaluateBatch(b)
	}()
	for queued := 0; queued < 2; {
		time.Sleep(time.Millisecond)
		e.qmu.Lock()
		queued = len(e.queue)
		e.qmu.Unlock()
	}
	close(inner.release)
	wg.Wait()

	pos := -1
	for i, sites := range inner.order {
		if len(sites) == 3 {
			pos = i
		}
	}
	if pos < 0 || pos >= 3 {
		t.Fatalf("batch B's set was evaluation %d of %d, want among the first 3", pos+1, len(inner.order))
	}
}

// keyGatedEval blocks each site set on its own gate (keyed by the
// first site); sets without a gate return at once.
type keyGatedEval struct {
	gates map[int]chan struct{}
	calls atomic.Int64
}

func (k *keyGatedEval) Evaluate(sites []int) (float64, error) {
	k.calls.Add(1)
	if g, ok := k.gates[sites[0]]; ok {
		<-g
	}
	return float64(sites[0]), nil
}

func TestFollowerWakesWithItsKey(t *testing.T) {
	x, y := []int{1, 2}, []int{3, 4}
	inner := &keyGatedEval{gates: map[int]chan struct{}{
		x[0]: make(chan struct{}),
		y[0]: make(chan struct{}),
	}}
	e, err := New(inner, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Open any gate still closed on the way out, so a failing run
	// does not leave Close waiting on a gated batch.
	var released [2]sync.Once
	release := func(g int, key int) { released[g].Do(func() { close(inner.gates[key]) }) }
	defer release(0, x[0])
	defer release(1, y[0])

	// Batch A leads X and Y, both gated in flight on the two workers.
	aDone := make(chan []error, 1)
	go func() {
		_, errs := e.EvaluateBatch([][]int{x, y})
		aDone <- errs
	}()
	for inner.calls.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	// Batch B follows X. Releasing X alone must bring B home while Y
	// (and with it batch A) is still gated.
	type outcome struct {
		v   float64
		err error
	}
	bDone := make(chan outcome, 1)
	go func() {
		v, errs := e.EvaluateBatch([][]int{x})
		bDone <- outcome{v[0], errs[0]}
	}()
	for e.joins.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	release(0, x[0])
	select {
	case oc := <-bDone:
		if oc.err != nil || oc.v != 1 {
			t.Fatalf("follower of X: %v, %v; want 1, nil", oc.v, oc.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower of X did not return while Y was still gated")
	}
	select {
	case <-aDone:
		t.Fatal("batch A returned before Y was released")
	default:
	}
	release(1, y[0])
	for i, err := range <-aDone {
		if err != nil {
			t.Fatalf("batch A item %d: %v", i, err)
		}
	}
	if got := inner.calls.Load(); got != 2 {
		t.Fatalf("computed %d times, want 2 (B coalesced onto X)", got)
	}
	if r := e.Report(); r.Coalesced != 1 {
		t.Fatalf("Report().Coalesced = %d, want 1", r.Coalesced)
	}
}

func TestSingleflightCoalescesConcurrentBatches(t *testing.T) {
	inner := &gatedEval{release: make(chan struct{})}
	e, err := New(inner, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Batch A takes the leader role for {3, 7} and blocks in the
	// worker; batch B misses the cache on the same canonical key and
	// must join A's flight instead of computing again.
	type outcome struct {
		v    float64
		err  error
		rept fitness.Report
	}
	results := make(chan outcome, 2)
	go func() {
		v, errs := e.EvaluateBatchContext(context.Background(), [][]int{{3, 7}})
		results <- outcome{v[0], errs[0], e.Report()}
	}()
	for inner.calls.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		v, errs := e.EvaluateBatchContext(context.Background(), [][]int{{3, 7}})
		results <- outcome{v[0], errs[0], e.Report()}
	}()
	// Wait until batch B has registered as a follower (the joins
	// counter ticks at registration), then release the computation.
	for e.joins.Load() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(inner.release)
	for i := 0; i < 2; i++ {
		oc := <-results
		if oc.err != nil {
			t.Fatal(oc.err)
		}
		if oc.v != 10 {
			t.Fatalf("value %v, want 10", oc.v)
		}
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("computed %d times for one key across two batches, want 1", got)
	}
	r := e.Report()
	if r.Coalesced != 1 {
		t.Fatalf("Report().Coalesced = %d, want 1", r.Coalesced)
	}
	if r.Requests != 2 || r.Computed != 1 {
		t.Fatalf("report %+v: want 2 requests, 1 computed", r)
	}
}

func TestEnginePipelineParity(t *testing.T) {
	// Against the real EH-DIALL -> CLUMP pipeline, the engine must
	// return exactly the serial values.
	d, err := popgen.Generate(popgen.Config{
		NumSNPs: 15, NumAffected: 25, NumUnaffected: 25,
		RiskHaplotypeFreq: 0.3,
		Disease: popgen.DiseaseModel{
			CausalSites: []int{2, 7}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := fitness.NewPipeline(d, clump.T1, ehdiall.Config{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewForDataset(d, clump.T1, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	r := rng.New(11)
	var batch [][]int
	for i := 0; i < 40; i++ {
		sites := r.Sample(d.NumSNPs(), 2+r.Intn(3))
		genotype.SortSites(sites)
		batch = append(batch, sites)
	}
	values, errs := e.EvaluateBatch(batch)
	for i, sites := range batch {
		want, werr := pipe.Evaluate(sites)
		if (errs[i] == nil) != (werr == nil) {
			t.Fatalf("item %d: error mismatch: %v vs %v", i, errs[i], werr)
		}
		if errs[i] == nil && values[i] != want {
			t.Fatalf("item %d: engine %v, serial %v", i, values[i], want)
		}
	}
	if rep := e.Report(); rep.Computed >= rep.Requests {
		// 40 random small sets over C(15,2..4) collide often enough
		// that at least one must have been coalesced or cached.
		t.Logf("report: %+v (no duplicate work observed, unusual but legal)", rep)
	}
}

// TestEnginePipelineParityAllStatistics repeats the parity check for
// every defined statistic, including AA: the engine (and its memo
// cache) must be bit-identical to the serial pipeline regardless of
// which CLUMP value is the fitness.
func TestEnginePipelineParityAllStatistics(t *testing.T) {
	d, err := popgen.Generate(popgen.Config{
		NumSNPs: 12, NumAffected: 25, NumUnaffected: 25,
		RiskHaplotypeFreq: 0.3,
		Disease: popgen.DiseaseModel{
			CausalSites: []int{2, 7}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, stat := range clump.All() {
		t.Run(stat.String(), func(t *testing.T) {
			pipe, err := fitness.NewPipeline(d, stat, ehdiall.Config{})
			if err != nil {
				t.Fatal(err)
			}
			e, err := NewForDataset(d, stat, Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			r := rng.New(uint64(stat) * 13)
			var batch [][]int
			for i := 0; i < 16; i++ {
				sites := r.Sample(d.NumSNPs(), 2+r.Intn(2))
				genotype.SortSites(sites)
				batch = append(batch, sites)
			}
			// Evaluate the batch twice: the second pass is served
			// entirely from the memo cache and must stay bit-identical.
			for pass := 0; pass < 2; pass++ {
				values, errs := e.EvaluateBatch(batch)
				for i, sites := range batch {
					want, werr := pipe.Evaluate(sites)
					if (errs[i] == nil) != (werr == nil) {
						t.Fatalf("pass %d item %d: error mismatch: %v vs %v", pass, i, errs[i], werr)
					}
					if errs[i] == nil && values[i] != want {
						t.Fatalf("pass %d item %d: engine %v, serial %v", pass, i, values[i], want)
					}
				}
			}
		})
	}
}

// keyGatedFP is an inner evaluator whose KeyFingerprint blocks on gate
// for the set starting at gateSite, so a test can hold the caller
// mid-batch while it keys.
type keyGatedFP struct {
	gateSite int
	gate     chan struct{}
	keying   chan struct{} // closed when the gated set starts keying
	once     sync.Once
	opened   sync.Once
	calls    atomic.Int64
}

// open releases the gate (idempotent).
func (k *keyGatedFP) open() { k.opened.Do(func() { close(k.gate) }) }

func (k *keyGatedFP) KeyFingerprint(sites []int) uint64 {
	if sites[0] == k.gateSite {
		k.once.Do(func() { close(k.keying) })
		<-k.gate
	}
	return 1
}

func (k *keyGatedFP) Evaluate(sites []int) (float64, error) {
	k.calls.Add(1)
	return float64(sites[0] + sites[1]), nil
}

// incrementalBatch is three chunks of distinct pairs; keying blocks at
// the first set of the second chunk.
func incrementalBatch(t *testing.T) (*Engine, *keyGatedFP, [][]int) {
	t.Helper()
	inner := &keyGatedFP{gateSite: keyChunk, gate: make(chan struct{}), keying: make(chan struct{})}
	e, err := New(inner, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	t.Cleanup(inner.open) // runs first: a failing test must not leave Close waiting
	batch := make([][]int, 3*keyChunk)
	for i := range batch {
		batch[i] = []int{i, i + 10000}
	}
	return e, inner, batch
}

// TestIncrementalJobStartsBeforeKeyingEnds: the caller queues a
// batch's job at its first chunk, so the workers compute that chunk
// while the caller is still keying the next one.
func TestIncrementalJobStartsBeforeKeyingEnds(t *testing.T) {
	e, inner, batch := incrementalBatch(t)
	type outcome struct {
		values []float64
		errs   []error
	}
	res := make(chan outcome, 1)
	go func() {
		v, errs := e.EvaluateBatch(batch)
		res <- outcome{v, errs}
	}()
	<-inner.keying
	deadline := time.Now().Add(5 * time.Second)
	for inner.calls.Load() < keyChunk {
		if time.Now().After(deadline) {
			t.Fatalf("workers computed %d of the first chunk's %d sets while keying was held", inner.calls.Load(), keyChunk)
		}
		time.Sleep(time.Millisecond)
	}
	inner.open()
	oc := <-res
	for i, err := range oc.errs {
		if err != nil || oc.values[i] != float64(batch[i][0]+batch[i][1]) {
			t.Fatalf("item %d: %v, %v", i, oc.values[i], err)
		}
	}
	if r := e.Report(); r.Computed != int64(len(batch)) || r.CacheEntries != len(batch) {
		t.Fatalf("report %+v: want every set computed and cached once", r)
	}
}

// TestIncrementalJobCancelMidExtension: cancelling a batch while its
// caller is still keying resolves every item — computed, or with the
// context's error — and leaves no flight behind: the same sets score
// afterwards.
func TestIncrementalJobCancelMidExtension(t *testing.T) {
	e, inner, batch := incrementalBatch(t)
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		values []float64
		errs   []error
	}
	res := make(chan outcome, 1)
	go func() {
		v, errs := e.EvaluateBatchContext(ctx, batch)
		res <- outcome{v, errs}
	}()
	<-inner.keying
	cancel()
	inner.open()
	var oc outcome
	select {
	case oc = <-res:
	case <-time.After(5 * time.Second):
		t.Fatal("batch cancelled mid-extension did not return")
	}
	computed := 0
	for i, err := range oc.errs {
		switch {
		case err == nil:
			if oc.values[i] != float64(batch[i][0]+batch[i][1]) {
				t.Fatalf("item %d: value %v", i, oc.values[i])
			}
			computed++
		case errors.Is(err, context.Canceled):
			if i >= 2*keyChunk {
				continue // never keyed
			}
		default:
			t.Fatalf("item %d: unexpected error %v", i, err)
		}
	}
	for i := 2 * keyChunk; i < len(batch); i++ {
		if !errors.Is(oc.errs[i], context.Canceled) {
			t.Fatalf("item %d after the cut: %v, want context.Canceled", i, oc.errs[i])
		}
	}
	if r := e.Report(); r.Computed != int64(computed) || r.CacheEntries != computed {
		t.Fatalf("report %+v: want %d computed and cached", r, computed)
	}

	// Every flight the cancelled batch led was published: the same
	// sets now score instead of following a dead flight.
	done := make(chan []error, 1)
	go func() {
		_, errs := e.EvaluateBatch(batch)
		done <- errs
	}()
	select {
	case errs := <-done:
		for i, err := range errs {
			if err != nil {
				t.Fatalf("rerun item %d: %v", i, err)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rerun of the cancelled batch's sets did not return")
	}
}
