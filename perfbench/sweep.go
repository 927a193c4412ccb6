package main

// sweep-wide: shard.RunSweep with k=2 windows and stride 1 over a wide
// synthetic study, one cold sharded engine per pass.

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/engine"
	"repro/internal/fitness"
	"repro/internal/popgen"
	"repro/internal/shard"
)

const (
	// sweepSNPs is the study width: every window of a pass is new, so
	// the memo cache never hits.
	sweepSNPs = 30000
	// sweepUploads is how many uploads each set-up times.
	sweepUploads = 3
)

var sweepCfg = shard.SweepConfig{Size: 2, Stride: 1}

// wideDataset is the paper's 176 individuals with 1% missing
// genotypes over sweepSNPs markers.
func wideDataset(seed uint64) (*repro.Dataset, error) {
	cfg := popgen.Paper249(seed)
	cfg.NumSNPs = sweepSNPs
	cfg.MissingRate = 0.01
	return repro.GenerateDataset(cfg)
}

// sweepUnit is the outcome of one sweep pass.
type sweepUnit struct {
	res        *repro.SweepResult
	wall       time.Duration
	firstEvent time.Duration
	eng        repro.EngineReport
}

// reporter is the engine surface a pass reads its status from.
type reporter interface{ Report() fitness.Report }

// runPass runs one sweep pass through ev, noting when the first shard
// completes, then times one status read (Report) of the finished pass.
// bt, when not nil, brackets the pass for the sweep loop's own time.
func runPass(ctx context.Context, ev fitness.Evaluator, eng reporter, plan shard.Plan, reads *samples, bt *batchTimer) (sweepUnit, error) {
	var u sweepUnit
	start := time.Now()
	if bt != nil {
		bt.startUnit(start)
	}
	res, err := shard.RunSweep(ctx, ev, plan, sweepCfg, nil, func(shard.SweepStatus) {
		if u.firstEvent == 0 {
			u.firstEvent = time.Since(start)
		}
	})
	end := time.Now()
	u.res, u.wall = res, end.Sub(start)
	if bt != nil {
		bt.endUnit(end)
	}
	u.eng = eng.Report()
	reads.add(time.Since(end))
	return u, err
}

// checkSweep checks that the pass scored every window without error and
// rescores the best window through the monolithic fitness.Pipeline.
func checkSweep(rep *report, oracle *fitness.Pipeline, res *repro.SweepResult) {
	rep.check(res.Evaluated == sweepSNPs-1 && res.Errored == 0,
		"sweep evaluated %d windows with %d errors, want %d and 0", res.Evaluated, res.Errored, sweepSNPs-1)
	v, err := oracle.Evaluate(res.Best.Best)
	rep.check(err == nil && math.Float64bits(v) == math.Float64bits(res.Best.Fitness),
		"best window %v: sweep fitness %v, pipeline %v (%v)", res.Best.Best, res.Best.Fitness, v, err)
}

type sweepState struct {
	d      *repro.Dataset
	oracle *fitness.Pipeline
}

func runSweep(cfg config) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	var up uploads
	openEngine := func(d *repro.Dataset) (func(), error) {
		eng, err := repro.NewShardedEngine(d, repro.T1, 0, "", cfg.nproc)
		if err != nil {
			return nil, err
		}
		return eng.Close, nil
	}
	st, setup, err := repeatSetup(setupRepeats, func() (sweepState, error) {
		d, err := wideDataset(cfg.seed)
		if err != nil {
			return sweepState{}, err
		}
		text, err := tableText(d)
		if err != nil {
			return sweepState{}, err
		}
		if err := up.ingestN(rep, sweepUploads, d, text, openEngine); err != nil {
			return sweepState{}, err
		}
		oracle, err := fitness.NewPipeline(d, clump.T1, ehdiall.Config{})
		if err != nil {
			return sweepState{}, err
		}
		// Warm-up: one pass on its own engine.
		eng, err := repro.NewShardedEngine(d, repro.T1, 0, "", cfg.nproc)
		if err != nil {
			return sweepState{}, err
		}
		defer eng.Close()
		if _, err := shard.RunSweep(ctx, eng, eng.Plan(), sweepCfg, nil, nil); err != nil {
			return sweepState{}, fmt.Errorf("warm-up pass: %w", err)
		}
		return sweepState{d: d, oracle: oracle}, nil
	}, func(sweepState) {})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = sec(setup)
	if cfg.trace {
		return rep, traceSweep(ctx, cfg, rep, st, &up)
	}

	var walls, firsts, reads samples
	var requests int64
	end := deadline(cfg)
	for i := 0; ; i++ {
		eng, err := repro.NewShardedEngine(st.d, repro.T1, 0, "", cfg.nproc)
		if err != nil {
			return nil, err
		}
		u, err := runPass(ctx, eng, eng, eng.Plan(), &reads, nil)
		last := !time.Now().Before(end)
		if last {
			rep.metrics["live_heap_mb"] = liveHeapMB()
		}
		eng.Close()
		rep.check(err == nil, "sweep pass %d: %v", i, err)
		if err != nil {
			continue
		}
		walls.add(u.wall)
		firsts.add(u.firstEvent)
		requests += u.eng.Requests
		checkSweep(rep, st.oracle, u.res)
		if last {
			break
		}
	}
	inprocMetrics(rep, &walls, &firsts, &reads, &up, requests)
	return rep, nil
}

// traceSweep runs passes in pairs, untraced then traced, until the
// measured phase ends; the first pair runs its traced pass twice.
func traceSweep(ctx context.Context, cfg config, rep *report, st sweepState, up *uploads) error {
	rec := newRecorder()
	tot := &layerTotals{loop: "sweep"}
	var reads samples
	end := deadline(cfg)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		eng, err := repro.NewShardedEngine(st.d, repro.T1, 0, "", cfg.nproc)
		if err != nil {
			return err
		}
		plain, err := runPass(ctx, eng, eng, eng.Plan(), &reads, nil)
		eng.Close()
		if err != nil {
			return fmt.Errorf("untraced pass %d: %w", i, err)
		}
		tot.untracedWall.add(plain.wall)
		repeats := 1
		if i == 0 {
			repeats = 2
		}
		var prev *layerCounters
		for r := 0; r < repeats; r++ {
			c := &layerCounters{}
			u, err := tracedPass(ctx, cfg, st, c, rec, tot, &reads)
			rep.check(err == nil, "traced pass %d: %v", i, err)
			if err != nil {
				continue
			}
			if r == 0 {
				tot.tracedWall.add(u.wall)
			}
			checkSweep(rep, st.oracle, u.res)
			rep.check(fmt.Sprint(u.res.Best) == fmt.Sprint(plain.res.Best) &&
				math.Float64bits(u.res.Best.Fitness) == math.Float64bits(plain.res.Best.Fitness),
				"pass %d: traced best %v differs from untraced %v", i, u.res.Best, plain.res.Best)
			rep.check(u.eng.Computed == plain.eng.Computed,
				"pass %d: computed %d untraced, %d traced", i, plain.eng.Computed, u.eng.Computed)
			if prev != nil {
				rep.check(prev.emIters.Load() == c.emIters.Load() && prev.emNonconv.Load() == c.emNonconv.Load(),
					"pass %d: ehdiall iterations %d/%d, nonconverged %d/%d across repeated passes", i,
					prev.emIters.Load(), c.emIters.Load(), prev.emNonconv.Load(), c.emNonconv.Load())
			}
			prev = c
		}
	}
	tot.layerMetrics(rep, up)
	path, err := spanPath(cfg)
	if err != nil {
		return err
	}
	rep.linef("spans: %s (%d dropped)", path, rec.dropped)
	return rec.write(path)
}

// tracedPass runs one pass on the traced stack: a timingSource over
// shard.NewMem, tracedShardEval under engine.New, behind a batchTimer.
func tracedPass(ctx context.Context, cfg config, st sweepState, c *layerCounters, rec *recorder, tot *layerTotals, reads *samples) (sweepUnit, error) {
	mem, err := shard.NewMem(st.d, 0, 0)
	if err != nil {
		return sweepUnit{}, err
	}
	src := &timingSource{Source: mem}
	defer src.Close()
	ev, err := newTracedShardEval(src, st.d, clump.T1, c, rec)
	if err != nil {
		return sweepUnit{}, err
	}
	eng, err := engine.New(ev, engine.Options{Workers: cfg.nproc, Fingerprint: st.d.Fingerprint()})
	if err != nil {
		return sweepUnit{}, err
	}
	defer eng.Close()
	bt := newBatchTimer(eng, rec)
	unit := rec.next.Add(1)
	rec.unit.Store(unit)
	u, err := runPass(ctx, bt, eng, src.Plan(), reads, bt)
	if err != nil {
		return u, err
	}
	rec.recordID(unit, "sweep.pass", 0, bt.unitStart, bt.unitStart.Add(u.wall), int(u.eng.Requests))
	tot.addUnit(c, bt, src, u.eng, u.wall, 0)
	return u, nil
}
