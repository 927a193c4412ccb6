package main

// Pieces shared by the two in-process workloads: dataset upload, heap
// measurement, and the per-layer totals of traced units.

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/genotype"
)

// uploads collects the timings of repeated dataset uploads.
type uploads struct {
	total, pack, qc samples
}

// ingestN registers a dataset from its table text n times, as an upload
// does: parse, pack, QC over every SNP (allele frequencies plus a
// Hardy-Weinberg test on the unaffected group), fingerprint, then open
// a backend on it. The pack and QC calls are also timed on their own,
// for the genotype layer. Every round trip must keep the dataset's
// fingerprint; what open returns is closed at once.
func (u *uploads) ingestN(rep *report, n int, want *repro.Dataset, text []byte, open func(*repro.Dataset) (func(), error)) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		d, err := repro.ReadDataset(bytes.NewReader(text))
		if err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		t1 := time.Now()
		p := genotype.PackDataset(d)
		t2 := time.Now()
		m := genotype.NewPlaneMask(d.NumIndividuals(), d.ByStatus(genotype.Unaffected))
		for j := 0; j < p.NumSNPs(); j++ {
			p.AlleleFreq(j)
			if _, err := p.HWETest(j, m); err != nil {
				return fmt.Errorf("upload: QC of SNP %d: %w", j, err)
			}
		}
		t3 := time.Now()
		fp := d.Fingerprint()
		closeFn, err := open(d)
		if err != nil {
			return fmt.Errorf("upload: %w", err)
		}
		u.total.add(time.Since(t0))
		u.pack.add(t2.Sub(t1))
		u.qc.add(t3.Sub(t2))
		closeFn()
		rep.check(fp == want.Fingerprint(), "upload %d changed the dataset fingerprint", i)
	}
	return nil
}

func tableText(d *repro.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := repro.WriteDataset(&buf, d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// repeatSetup runs setup n times and returns the median duration with
// the last setup's state; earlier states are released with drop.
func repeatSetup[T any](n int, setup func() (T, error), drop func(T)) (T, time.Duration, error) {
	var (
		st    T
		times samples
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			drop(st)
		}
		start := time.Now()
		var err error
		st, err = setup()
		if err != nil {
			return st, 0, err
		}
		times.add(time.Since(start))
	}
	return st, times.median(), nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

// layerTotals sums the traced units' counters.
type layerTotals struct {
	units                               int
	workers                             int
	runNS, selfNS                       int64
	batches, batchNS                    int64
	evals, evalNS, gatherNS             int64
	emCalls, emNS, emIters, emNonconv   int64
	clumpCalls, clumpNS, emptyGroup     int64
	srcCalls, srcNS                     int64
	requests, computed, hits, coalesced int64
	cacheEntries                        int
	generations                         int64
	untracedWall, tracedWall            samples
	loop                                string // "core" for the GA, "sweep" for RunSweep
}

// addUnit folds one traced unit into the totals.
func (t *layerTotals) addUnit(c *layerCounters, bt *batchTimer, src *timingSource, eng repro.EngineReport, wall time.Duration, generations int) {
	t.units++
	t.workers = eng.Workers
	t.runNS += int64(wall)
	bt.mu.Lock()
	t.selfNS += bt.selfNS
	bt.mu.Unlock()
	t.batches += bt.batches.Load()
	t.batchNS += bt.batchNS.Load()
	t.evals += c.evals.Load()
	t.evalNS += c.evalNS.Load()
	t.gatherNS += c.gatherNS.Load()
	t.emCalls += c.emCalls.Load()
	t.emNS += c.emNS.Load()
	t.emIters += c.emIters.Load()
	t.emNonconv += c.emNonconv.Load()
	t.clumpCalls += c.clumpCalls.Load()
	t.clumpNS += c.clumpNS.Load()
	t.emptyGroup += c.emptyGroup.Load()
	if src != nil {
		t.srcCalls += src.calls.Load()
		t.srcNS += src.ns.Load()
	}
	t.requests += eng.Requests
	t.computed += eng.Computed
	t.hits += eng.CacheHits
	t.coalesced += eng.Coalesced
	t.cacheEntries = eng.CacheEntries
	t.generations += int64(generations)
}

// layerMetrics turns the totals into the per-layer metrics and the
// reconciliation lines.
func (t *layerTotals) layerMetrics(rep *report, up *uploads) {
	s := func(ns int64) float64 { return float64(ns) / 1e9 }
	m := rep.metrics
	zeroLayers(m)
	m["genotype.pack_s"] = sec(up.pack.median())
	m["genotype.qc_s"] = sec(up.qc.median())

	m["ehdiall.calls"] = float64(t.emCalls)
	m["ehdiall.busy_s"] = s(t.emNS)
	m["ehdiall.ns_per_call"] = ratio(float64(t.emNS), float64(t.emCalls))
	m["ehdiall.iters_per_call"] = ratio(float64(t.emIters), float64(t.emCalls))
	m["ehdiall.nonconverged"] = float64(t.emNonconv)
	m["ehdiall.share"] = ratio(float64(t.emNS), float64(t.evalNS))

	m["clump.calls"] = float64(t.clumpCalls)
	m["clump.busy_s"] = s(t.clumpNS)
	m["clump.ns_per_call"] = ratio(float64(t.clumpNS), float64(t.clumpCalls))

	unattributed := t.evalNS - t.gatherNS - t.emNS - t.clumpNS
	m["fitness.calls"] = float64(t.evals)
	m["fitness.busy_s"] = s(t.evalNS)
	m["fitness.ns_per_eval"] = ratio(float64(t.evalNS), float64(t.evals))
	m["fitness.gather_s"] = s(t.gatherNS)
	m["fitness.empty_group"] = float64(t.emptyGroup)
	m["fitness.unattributed_s"] = s(unattributed)

	m["shard.source_calls"] = float64(t.srcCalls)
	m["shard.source_s"] = s(t.srcNS)
	m["shard.calls_per_eval"] = ratio(float64(t.srcCalls), float64(t.evals))

	workers := float64(t.workers)
	engineSelf := float64(t.batchNS) - ratio(float64(t.evalNS), workers)
	m["engine.requests"] = float64(t.requests)
	m["engine.computed"] = float64(t.computed)
	m["engine.hit_rate"] = ratio(float64(t.hits), float64(t.requests))
	m["engine.coalesced"] = float64(t.coalesced)
	m["engine.cache_entries"] = float64(t.cacheEntries)
	m["engine.batches"] = float64(t.batches)
	m["engine.batch_s"] = s(t.batchNS)
	m["engine.self_s"] = engineSelf / 1e9
	m["engine.worker_util"] = ratio(float64(t.evalNS), workers*float64(t.batchNS))

	if t.loop == "core" {
		m["core.generations"] = float64(t.generations)
		m["core.run_s"] = s(t.runNS)
		m["core.self_s"] = s(t.selfNS)
		m["core.batch_size_mean"] = ratio(float64(t.requests), float64(t.batches))
	}

	m["trace.overhead"] = ratio(float64(t.tracedWall.median()), float64(t.untracedWall.median())) - 1
	rep.notes["trace.overhead"] = fmt.Sprintf("median traced / untraced unit wall - 1 over %d paired units", t.tracedWall.len())

	share := func(part, whole float64) string {
		return fmt.Sprintf("%.4fs (%.1f%%)", part/1e9, 100*ratio(part, whole))
	}
	run, self, batch := float64(t.runNS), float64(t.selfNS), float64(t.batchNS)
	rep.linef("reconcile %s: run %.4fs = engine.batch %s + residual (%s self, from its own gap timer) %s; unexplained %s",
		t.loop, run/1e9, share(batch, run), t.loop, share(self, run), share(run-self-batch, run))
	rep.linef("reconcile engine: batch %.4fs = fitness.busy/workers %s + residual (engine self) %s",
		batch/1e9, share(ratio(float64(t.evalNS), workers), batch), share(engineSelf, batch))
	busy := float64(t.evalNS)
	rep.linef("reconcile fitness: busy %.4fs = gather %s + ehdiall %s + clump %s + residual (unattributed) %s",
		busy/1e9, share(float64(t.gatherNS), busy), share(float64(t.emNS), busy), share(float64(t.clumpNS), busy),
		share(float64(unattributed), busy))
	rep.linef("traced units %d; shard source share of gather %.1f%%", t.units, 100*ratio(float64(t.srcNS), float64(t.gatherNS)))
}
