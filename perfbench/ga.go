package main

// ga-249: synchronous GA runs with the paper's §5.2.1 GAConfig on the
// 249-SNP preset shape.

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
)

const (
	// gaGenerations caps each GA run. The paper's stagnation limit of
	// 100 generations is kept but never reached: an uncapped run takes
	// half a minute on two cores, and a run of the benchmark must hold
	// many GA runs to report a steady median.
	gaGenerations = 3
	// gaDatasets is how many 249-SNP datasets a run draws from the
	// workload seed; GA run i uses dataset i mod gaDatasets, so that one
	// dataset's EM cost does not set the run's figures.
	gaDatasets = 32
)

// gaConfig is the paper's §5.2.1 configuration: sizes 2-6, population
// 150, stagnation 100.
func gaConfig(seed uint64) repro.GAConfig {
	return repro.GAConfig{MinSize: 2, MaxSize: 6, PopulationSize: 150, StagnationLimit: 100,
		MaxGenerations: gaGenerations, Seed: seed}
}

// gaUnit is the outcome of one GA run.
type gaUnit struct {
	res        *repro.GAResult
	wall       time.Duration
	firstEvent time.Duration
	eng        repro.EngineReport
}

// runJob starts one GA run on the session and follows it to the end on
// its Progress channel, then times one status read: Job.Report and
// Session.Report, what a status page shows once the run has ended. bt,
// when not nil, brackets the run for the caller's self time.
func runJob(ctx context.Context, sess *repro.Session, cfg repro.GAConfig, reads *samples, bt *batchTimer) (gaUnit, error) {
	var u gaUnit
	start := time.Now()
	if bt != nil {
		bt.startUnit(start)
	}
	job, err := sess.Start(ctx, repro.WithGAConfig(cfg))
	if err != nil {
		return u, err
	}
	for range job.Progress() {
		if u.firstEvent == 0 {
			u.firstEvent = time.Since(start)
		}
	}
	u.res, err = job.Wait()
	end := time.Now()
	u.wall = end.Sub(start)
	if bt != nil {
		bt.endUnit(end)
	}
	job.Report()
	u.eng, _ = sess.Report()
	reads.add(time.Since(end))
	return u, err
}

// checkBest rescores every size's best haplotype through the byte
// reference kernel; the values must match bit for bit.
func checkBest(rep *report, oracle *fitness.Pipeline, res *repro.GAResult) {
	for size, h := range res.BestBySize {
		v, err := oracle.Evaluate(h.Sites)
		rep.check(err == nil && math.Float64bits(v) == math.Float64bits(h.Fitness),
			"size %d best %v: GA fitness %v, byte reference %v (%v)", size, h.Sites, h.Fitness, v, err)
	}
}

// sameBest reports whether two results hold the same best haplotype of
// every size, fitness compared bit for bit.
func sameBest(a, b *repro.GAResult) bool {
	if a == nil || b == nil || len(a.BestBySize) != len(b.BestBySize) {
		return false
	}
	for size, ha := range a.BestBySize {
		hb, ok := b.BestBySize[size]
		if !ok || math.Float64bits(ha.Fitness) != math.Float64bits(hb.Fitness) || fmt.Sprint(ha.Sites) != fmt.Sprint(hb.Sites) {
			return false
		}
	}
	return true
}

type gaState struct {
	data    []*repro.Dataset
	oracles []*fitness.Pipeline
}

func runGA(cfg config) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	var up uploads
	openSession := func(d *repro.Dataset) (func(), error) {
		s, err := repro.NewSession(d, repro.WithWorkers(cfg.nproc))
		if err != nil {
			return nil, err
		}
		return func() { s.Close() }, nil
	}
	st, setup, err := repeatSetup(setupRepeats, func() (gaState, error) {
		var st gaState
		for k := 0; k < gaDatasets; k++ {
			d, err := repro.Paper249Dataset(mix(cfg.seed, uint64(k)))
			if err != nil {
				return st, err
			}
			text, err := tableText(d)
			if err != nil {
				return st, err
			}
			if err := up.ingestN(rep, 1, d, text, openSession); err != nil {
				return st, err
			}
			oracle, err := fitness.NewPipelineKernel(d, clump.T1, ehdiall.Config{}, false)
			if err != nil {
				return st, err
			}
			st.data = append(st.data, d)
			st.oracles = append(st.oracles, oracle)
		}
		// Warm-up: one GA run on its own session and seed.
		sess, err := repro.NewSession(st.data[0], repro.WithWorkers(cfg.nproc))
		if err != nil {
			return st, err
		}
		defer sess.Close()
		if _, err := sess.Run(ctx, repro.WithGAConfig(gaConfig(mix(cfg.seed, 1<<40)))); err != nil {
			return st, fmt.Errorf("warm-up run: %w", err)
		}
		return st, nil
	}, func(gaState) {})
	if err != nil {
		return nil, err
	}
	rep.metrics["setup_s"] = sec(setup)
	if cfg.trace {
		return rep, traceGA(ctx, cfg, rep, st, &up)
	}

	var walls, firsts, reads samples
	var requests int64
	end := deadline(cfg)
	for i := uint64(0); ; i++ {
		k := i % gaDatasets
		sess, err := repro.NewSession(st.data[k], repro.WithWorkers(cfg.nproc))
		if err != nil {
			return nil, err
		}
		u, err := runJob(ctx, sess, gaConfig(mix(cfg.seed, i)), &reads, nil)
		last := !time.Now().Before(end)
		if last {
			rep.metrics["live_heap_mb"] = liveHeapMB()
		}
		sess.Close()
		rep.check(err == nil, "GA run %d: %v", i, err)
		if err != nil {
			continue
		}
		walls.add(u.wall)
		firsts.add(u.firstEvent)
		requests += u.eng.Requests
		checkBest(rep, st.oracles[k], u.res)
		if last {
			break
		}
	}
	inprocMetrics(rep, &walls, &firsts, &reads, &up, requests)
	return rep, nil
}

// inprocMetrics fills the end-to-end metrics both in-process workloads
// share: one unit of work is one job.
func inprocMetrics(rep *report, walls, firsts, reads *samples, up *uploads, requests int64) {
	busy := walls.sum()
	tail, _ := walls.tail()
	readTail, _ := reads.tail()
	m := rep.metrics
	m["run_s"] = sec(walls.median())
	m["evals_per_s"] = ratio(float64(requests), sec(busy))
	m["job_p50_ms"] = ms(walls.median())
	m["job_tail_ms"] = ms(tail)
	m["first_event_p50_ms"] = ms(firsts.median())
	m["read_p50_ms"] = ms(reads.median())
	m["read_tail_ms"] = ms(readTail)
	m["upload_p50_ms"] = ms(up.total.median())
	m["jobs_per_s"] = ratio(float64(walls.len()), sec(busy))
	rep.notes["run_s"] = fmt.Sprintf("median of %d units", walls.len())
	rep.notes["job_tail_ms"] = walls.tailNote()
	rep.notes["read_tail_ms"] = reads.tailNote()
	rep.notes["upload_p50_ms"] = fmt.Sprintf("median of %d uploads", up.total.len())
}

// traceGA runs GA units in pairs, untraced then traced with the same
// seed, until the measured phase ends. The first seed runs traced
// twice, so that the program's exact counts can be compared across
// repeated runs.
func traceGA(ctx context.Context, cfg config, rep *report, st gaState, up *uploads) error {
	rec := newRecorder()
	tot := &layerTotals{loop: "core"}
	var reads samples
	end := deadline(cfg)
	for i := uint64(0); i == 0 || time.Now().Before(end); i++ {
		seed, k := mix(cfg.seed, i), i%gaDatasets
		sess, err := repro.NewSession(st.data[k], repro.WithWorkers(cfg.nproc))
		if err != nil {
			return err
		}
		plain, err := runJob(ctx, sess, gaConfig(seed), &reads, nil)
		sess.Close()
		if err != nil {
			return fmt.Errorf("untraced GA run %d: %w", i, err)
		}
		tot.untracedWall.add(plain.wall)
		repeats := 1
		if i == 0 {
			repeats = 2
		}
		var prev *layerCounters
		for r := 0; r < repeats; r++ {
			c := &layerCounters{}
			u, err := tracedGAUnit(ctx, cfg, st.data[k], gaConfig(seed), c, rec, tot, &reads)
			rep.check(err == nil, "traced GA run %d: %v", i, err)
			if err != nil {
				continue
			}
			if r == 0 {
				tot.tracedWall.add(u.wall)
			}
			checkBest(rep, st.oracles[k], u.res)
			rep.check(sameBest(plain.res, u.res), "seed %d: traced result differs from untraced", seed)
			rep.check(u.eng.Computed == plain.eng.Computed && u.res.Generations == plain.res.Generations,
				"seed %d: computed %d/%d, generations %d/%d (untraced/traced)", seed,
				plain.eng.Computed, u.eng.Computed, plain.res.Generations, u.res.Generations)
			if prev != nil {
				rep.check(prev.emIters.Load() == c.emIters.Load() && prev.emNonconv.Load() == c.emNonconv.Load(),
					"seed %d: ehdiall iterations %d/%d, nonconverged %d/%d across repeated runs", seed,
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

// tracedGAUnit runs one GA unit on the traced stack: tracedPipeline
// under engine.New, behind a batchTimer handed to the session with
// repro.WithEvaluator.
func tracedGAUnit(ctx context.Context, cfg config, d *repro.Dataset, gc repro.GAConfig, c *layerCounters, rec *recorder, tot *layerTotals, reads *samples) (gaUnit, error) {
	tp := newTracedPipeline(d, clump.T1, c, rec)
	eng, err := engine.New(tp, engine.Options{Workers: cfg.nproc, Fingerprint: d.Fingerprint()})
	if err != nil {
		return gaUnit{}, err
	}
	defer eng.Close()
	bt := newBatchTimer(eng, rec)
	sess, err := repro.NewSession(d, repro.WithEvaluator(bt))
	if err != nil {
		return gaUnit{}, err
	}
	defer sess.Close()
	unit := rec.next.Add(1)
	rec.unit.Store(unit)
	u, err := runJob(ctx, sess, gc, reads, bt)
	if err != nil {
		return u, err
	}
	rec.recordID(unit, "core.run", 0, bt.unitStart, bt.unitStart.Add(u.wall), int(u.eng.Requests))
	tot.addUnit(c, bt, nil, u.eng, u.wall, u.res.Generations)
	return u, nil
}
