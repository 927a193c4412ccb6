package main

// The traced stack: thin timing decorators at each layer boundary,
// assembled from the layers' public constructors. tracedPipeline and
// tracedShardEval repeat, call for call, what fitness.Pipeline and
// shard.Evaluator do in EvaluateScratch (gather, two
// ehdiall.EstimatePacked calls, fitness.Scratch.Score) with a clock
// read between the stages; timingSource wraps a shard.Source, and
// batchTimer wraps the engine's batch entry point. The decorators keep
// the interfaces the engine and the GA type-assert
// (fitness.ScratchEvaluator, engine.KeyFingerprinter,
// fitness.ContextBatchEvaluator, fitness.Reporter), so the traced run
// takes the same worker path as the untraced one.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/engine"
	"repro/internal/fitness"
	"repro/internal/genotype"
	"repro/internal/shard"
)

// span is one timed call at a layer boundary. Spans of one unit of
// work share the unit's span as their root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Items  int    `json:"items,omitempty"`
}

// maxSpans bounds the spans a recorder keeps; later spans are counted
// as dropped. A sweep pass alone evaluates tens of thousands of
// windows, and the counters, not the spans, carry the per-layer totals.
const maxSpans = 200_000

// recorder holds spans in memory until the run ends. It also tracks the
// current unit and batch, so that spans recorded deeper in the stack
// can name their parent: in-process units run one at a time and issue
// their batches one after another.
type recorder struct {
	epoch   time.Time
	next    atomic.Int64
	unit    atomic.Int64
	batch   atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// record stores one finished span and returns its id.
func (r *recorder) record(name string, parent int64, start, end time.Time, items int) int64 {
	id := r.next.Add(1)
	r.recordID(id, name, parent, start, end, items)
	return id
}

// recordID stores one finished span under an id taken earlier from
// r.next, for spans whose children must name them before they end.
func (r *recorder) recordID(id int64, name string, parent int64, start, end time.Time, items int) {
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)), Items: items}
	r.mu.Lock()
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerCounters are the per-stage totals the traced evaluators keep.
// Durations are nanoseconds summed over every evaluating worker.
type layerCounters struct {
	evals, evalNS, gatherNS           atomic.Int64
	emCalls, emNS, emIters, emNonconv atomic.Int64
	clumpCalls, clumpNS               atomic.Int64
	emptyGroup                        atomic.Int64
}

// stages is the shared body of the traced evaluators: EvaluateScratch
// with a clock around each stage, the site check and the gather step
// supplied by the front-end.
type stages struct {
	stat            clump.Statistic
	em              ehdiall.Config
	affMask, unMask genotype.PlaneMask
	c               *layerCounters
	rec             *recorder
}

func (s *stages) evaluate(sites []int, scr *fitness.Scratch, check func([]int) error, gather func([]int, *fitness.Scratch) error) (float64, error) {
	start := time.Now()
	err := check(sites)
	if err == nil {
		t := time.Now()
		err = gather(sites, scr)
		s.c.gatherNS.Add(int64(time.Since(t)))
	}
	var v float64
	if err == nil {
		var aff, un *ehdiall.Result
		aff, err = s.estimate(scr.PackedCols, s.affMask, &scr.Aff)
		if err == nil {
			un, err = s.estimate(scr.PackedCols, s.unMask, &scr.Un)
		}
		if err == nil {
			t := time.Now()
			v, err = scr.Score(aff, un, s.stat)
			s.c.clumpCalls.Add(1)
			s.c.clumpNS.Add(int64(time.Since(t)))
		}
	}
	end := time.Now()
	s.c.evals.Add(1)
	s.c.evalNS.Add(int64(end.Sub(start)))
	s.rec.record("fitness.eval", s.rec.batch.Load(), start, end, len(sites))
	return v, err
}

// estimate is one timed ehdiall.EstimatePacked call with the error
// mapping both evaluators apply.
func (s *stages) estimate(cols []genotype.PackedColumn, mask genotype.PlaneMask, scr *ehdiall.Scratch) (*ehdiall.Result, error) {
	t := time.Now()
	res, err := ehdiall.EstimatePacked(cols, mask, s.em, scr)
	s.c.emNS.Add(int64(time.Since(t)))
	s.c.emCalls.Add(1)
	if err != nil {
		if errors.Is(err, ehdiall.ErrNoData) {
			s.c.emptyGroup.Add(1)
			return nil, fitness.ErrEmptyGroup
		}
		return nil, err
	}
	s.c.emIters.Add(int64(res.Iterations))
	if !res.Converged {
		s.c.emNonconv.Add(1)
	}
	return res, nil
}

// checkSites applies the evaluators' site-set contract: non-empty, at
// most ehdiall.MaxSNPs, strictly increasing, in range.
func checkSites(sites []int, numSNPs int) error {
	if len(sites) == 0 || len(sites) > ehdiall.MaxSNPs {
		return fmt.Errorf("perfbench: haplotype size %d out of [1,%d]", len(sites), ehdiall.MaxSNPs)
	}
	prev := -1
	for _, s := range sites {
		if s <= prev || s >= numSNPs {
			return fmt.Errorf("perfbench: bad site set %v", sites)
		}
		prev = s
	}
	return nil
}

func growCols(scr *fitness.Scratch, n int) {
	if cap(scr.PackedCols) < n {
		scr.PackedCols = make([]genotype.PackedColumn, n)
	}
	scr.PackedCols = scr.PackedCols[:n]
}

// tracedPipeline is fitness.Pipeline's packed EvaluateScratch with a
// clock between the stages.
type tracedPipeline struct {
	stages
	packed *genotype.Packed
	pool   sync.Pool
}

func newTracedPipeline(d *genotype.Dataset, stat clump.Statistic, c *layerCounters, rec *recorder) *tracedPipeline {
	n := d.NumIndividuals()
	return &tracedPipeline{
		stages: stages{
			stat:    stat,
			affMask: genotype.NewPlaneMask(n, d.ByStatus(genotype.Affected)),
			unMask:  genotype.NewPlaneMask(n, d.ByStatus(genotype.Unaffected)),
			c:       c,
			rec:     rec,
		},
		packed: genotype.PackDataset(d),
	}
}

func (p *tracedPipeline) check(sites []int) error { return checkSites(sites, p.packed.NumSNPs()) }

func (p *tracedPipeline) gather(sites []int, scr *fitness.Scratch) error {
	growCols(scr, len(sites))
	for i, s := range sites {
		scr.PackedCols[i] = p.packed.Col(s)
	}
	return nil
}

// EvaluateScratch implements fitness.ScratchEvaluator.
func (p *tracedPipeline) EvaluateScratch(sites []int, scr *fitness.Scratch) (float64, error) {
	return p.evaluate(sites, scr, p.check, p.gather)
}

// Evaluate implements fitness.Evaluator with a pooled scratch.
func (p *tracedPipeline) Evaluate(sites []int) (float64, error) {
	scr, _ := p.pool.Get().(*fitness.Scratch)
	if scr == nil {
		scr = fitness.NewScratch()
	}
	defer p.pool.Put(scr)
	return p.EvaluateScratch(sites, scr)
}

// timingSource counts and times shard.Source.Shard calls.
type timingSource struct {
	shard.Source
	calls, ns atomic.Int64
}

// Shard implements shard.Source.
func (t *timingSource) Shard(i int) (*shard.Shard, error) {
	start := time.Now()
	sh, err := t.Source.Shard(i)
	t.ns.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return sh, err
}

// tracedShardEval is shard.Evaluator's packed EvaluateScratch with a
// clock between the stages. Cache keys come from a shard.Evaluator over
// the same source, so the engine keys entries exactly as it does for
// the untraced evaluator.
type tracedShardEval struct {
	stages
	src  shard.Source
	keys *shard.Evaluator
	pool sync.Pool
}

func newTracedShardEval(src shard.Source, d *genotype.Dataset, stat clump.Statistic, c *layerCounters, rec *recorder) (*tracedShardEval, error) {
	keys, err := shard.NewEvaluator(src, d, stat, ehdiall.Config{})
	if err != nil {
		return nil, err
	}
	n := d.NumIndividuals()
	return &tracedShardEval{
		stages: stages{
			stat:    stat,
			affMask: genotype.NewPlaneMask(n, d.ByStatus(genotype.Affected)),
			unMask:  genotype.NewPlaneMask(n, d.ByStatus(genotype.Unaffected)),
			c:       c,
			rec:     rec,
		},
		src:  src,
		keys: keys,
	}, nil
}

func (e *tracedShardEval) check(sites []int) error { return checkSites(sites, e.src.Plan().NumSNPs) }

// gather walks the sites' shards one request per distinct shard, as
// shard.Evaluator does.
func (e *tracedShardEval) gather(sites []int, scr *fitness.Scratch) error {
	growCols(scr, len(sites))
	plan := e.src.Plan()
	var cur *shard.Shard
	for i, s := range sites {
		if si := plan.ShardOf(s); cur == nil || cur.Meta.Index != si {
			sh, err := e.src.Shard(si)
			if err != nil {
				return err
			}
			cur = sh
		}
		scr.PackedCols[i] = cur.PackedColumn(s)
	}
	return nil
}

// KeyFingerprint implements engine.KeyFingerprinter.
func (e *tracedShardEval) KeyFingerprint(sites []int) uint64 { return e.keys.KeyFingerprint(sites) }

// EvaluateScratch implements fitness.ScratchEvaluator.
func (e *tracedShardEval) EvaluateScratch(sites []int, scr *fitness.Scratch) (float64, error) {
	return e.evaluate(sites, scr, e.check, e.gather)
}

// Evaluate implements fitness.Evaluator with a pooled scratch.
func (e *tracedShardEval) Evaluate(sites []int) (float64, error) {
	scr, _ := e.pool.Get().(*fitness.Scratch)
	if scr == nil {
		scr = fitness.NewScratch()
	}
	defer e.pool.Put(scr)
	return e.EvaluateScratch(sites, scr)
}

// batchTimer times every batch handed to the engine. It also measures
// the caller's own time between batches (the GA's bookkeeping, or the
// sweep's window enumeration): startUnit and endUnit bracket one unit
// of work, and every gap between them that is not inside a batch is
// added to selfNS.
type batchTimer struct {
	eng *engine.Engine
	rec *recorder

	batches, batchNS atomic.Int64

	mu        sync.Mutex
	unitStart time.Time
	lastEnd   time.Time
	selfNS    int64
}

func newBatchTimer(eng *engine.Engine, rec *recorder) *batchTimer {
	return &batchTimer{eng: eng, rec: rec}
}

func (b *batchTimer) startUnit(t time.Time) {
	b.mu.Lock()
	b.unitStart, b.lastEnd = t, t
	b.mu.Unlock()
}

func (b *batchTimer) endUnit(t time.Time) {
	b.mu.Lock()
	b.selfNS += int64(t.Sub(b.lastEnd))
	b.mu.Unlock()
}

// EvaluateBatchContext implements fitness.ContextBatchEvaluator.
func (b *batchTimer) EvaluateBatchContext(ctx context.Context, batch [][]int) ([]float64, []error) {
	start := time.Now()
	b.mu.Lock()
	b.selfNS += int64(start.Sub(b.lastEnd))
	b.mu.Unlock()
	id := b.rec.next.Add(1)
	b.rec.batch.Store(id)
	values, errs := b.eng.EvaluateBatchContext(ctx, batch)
	end := time.Now()
	b.mu.Lock()
	b.lastEnd = end
	b.mu.Unlock()
	b.batches.Add(1)
	b.batchNS.Add(int64(end.Sub(start)))
	b.rec.recordID(id, "engine.batch", b.rec.unit.Load(), start, end, len(batch))
	return values, errs
}

// EvaluateBatch implements fitness.BatchEvaluator.
func (b *batchTimer) EvaluateBatch(batch [][]int) ([]float64, []error) {
	return b.EvaluateBatchContext(context.Background(), batch)
}

// Evaluate implements fitness.Evaluator through the batch path, as the
// engine does.
func (b *batchTimer) Evaluate(sites []int) (float64, error) {
	values, errs := b.EvaluateBatch([][]int{sites})
	return values[0], errs[0]
}

// Report implements fitness.Reporter.
func (b *batchTimer) Report() fitness.Report { return b.eng.Report() }

// Slaves reports the engine's worker count, as the engine does.
func (b *batchTimer) Slaves() int { return b.eng.Workers() }

var (
	_ fitness.ScratchEvaluator      = (*tracedPipeline)(nil)
	_ fitness.ScratchEvaluator      = (*tracedShardEval)(nil)
	_ engine.KeyFingerprinter       = (*tracedShardEval)(nil)
	_ shard.Source                  = (*timingSource)(nil)
	_ fitness.ContextBatchEvaluator = (*batchTimer)(nil)
	_ fitness.BatchEvaluator        = (*batchTimer)(nil)
	_ fitness.Reporter              = (*batchTimer)(nil)
)
