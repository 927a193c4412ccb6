package repro

// One benchmark per table and figure of the paper's evaluation. Each
// bench drives the same experiment harness as cmd/ldexp, at a reduced
// scale so the full suite completes in minutes; the full-scale
// regeneration (10 runs, paper parameters) is `ldexp -exp all`.
// Custom metrics expose the paper's own cost measures (evaluations,
// speedup) alongside wall-clock time.

import (
	"context"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ehdiall"
	"repro/internal/exp"
	"repro/internal/fitness"
	"repro/internal/genotype"
	"repro/internal/rng"
)

func benchDataset(b *testing.B) *Dataset {
	b.Helper()
	d, err := Paper51Dataset(42)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// benchGAConfig is the reduced Table-2 configuration used by benches.
func benchGAConfig() core.Config {
	return core.Config{
		MinSize: 2, MaxSize: 6,
		PopulationSize:      100,
		PairsPerGeneration:  30,
		StagnationLimit:     25,
		ImmigrantStagnation: 10,
		MaxGenerations:      400,
	}
}

// BenchmarkTable1SearchSpace regenerates Table 1 (search-space sizes
// for 51, 150 and 249 SNPs, haplotype sizes 2..6).
func BenchmarkTable1SearchSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := exp.Table1([]int{51, 150, 249}, 2, 6)
		if len(rows) != 5 {
			b.Fatal("table 1 wrong shape")
		}
	}
	rows := exp.Table1([]int{51, 150, 249}, 2, 6)
	if err := exp.RenderTable1(io.Discard, []int{51, 150, 249}, rows); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkFigure4Eval regenerates Figure 4's x-axis: the cost of one
// EH-DIALL -> CLUMP evaluation per haplotype size on the 51-SNP study.
func BenchmarkFigure4Eval(b *testing.B) {
	d := benchDataset(b)
	ev, err := NewEvaluator(d, T1)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{2, 3, 4, 5, 6, 7} {
		b.Run(func() string { return "size=" + string(rune('0'+size)) }(), func(b *testing.B) {
			r := rng.New(uint64(size))
			sets := make([][]int, 32)
			for i := range sets {
				sets[i] = r.Sample(d.NumSNPs(), size)
				genotype.SortSites(sets[i])
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Evaluate(sets[i%len(sets)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2GA regenerates a reduced Table 2: repeated
// full-method GA runs on the 51-SNP study, reporting the paper's
// evaluation-count metric.
func BenchmarkTable2GA(b *testing.B) {
	d := benchDataset(b)
	var lastEvals float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Table2(context.Background(), d, exp.Table2Params{
			Runs: 2, Seed: uint64(i), GA: benchGAConfig(),
		})
		if err != nil {
			b.Fatal(err)
		}
		lastEvals = res.MeanTotalEvals
	}
	b.ReportMetric(lastEvals, "evals/run")
}

// BenchmarkAblation regenerates the §5.2 mechanism comparison at its
// two extremes (plain GA vs full method).
func BenchmarkAblation(b *testing.B) {
	d := benchDataset(b)
	schemes := exp.DefaultAblationSchemes()
	for _, idx := range []int{0, len(schemes) - 1} {
		scheme := schemes[idx]
		name := "scheme=plain"
		if idx > 0 {
			name = "scheme=full"
		}
		b.Run(name, func(b *testing.B) {
			var lastEvals float64
			for i := 0; i < b.N; i++ {
				rows, err := exp.Ablation(context.Background(), d, exp.Table2Params{
					Runs: 1, Seed: uint64(i), GA: benchGAConfig(),
				}, []exp.AblationScheme{scheme})
				if err != nil {
					b.Fatal(err)
				}
				lastEvals = rows[0].MeanEvals
			}
			b.ReportMetric(lastEvals, "evals/run")
		})
	}
}

// BenchmarkSpeedup regenerates the §4.5 master/slave scaling
// experiment with a simulated 2004-era per-evaluation cost.
func BenchmarkSpeedup(b *testing.B) {
	d := benchDataset(b)
	for _, slaves := range []int{1, 2, 4, 8} {
		b.Run(func() string { return "slaves=" + string(rune('0'+slaves)) }(), func(b *testing.B) {
			var speedup float64
			for i := 0; i < b.N; i++ {
				points, err := exp.Speedup(context.Background(), d, exp.SpeedupParams{
					Slaves:        []int{1, slaves},
					BatchSize:     32,
					Batches:       1,
					HaplotypeSize: 5,
					EvalLatency:   2 * time.Millisecond,
					Seed:          uint64(i),
				})
				if err != nil {
					b.Fatal(err)
				}
				speedup = points[1].Speedup
			}
			b.ReportMetric(speedup, "speedup")
		})
	}
}

// BenchmarkBackendGA compares the evaluation backends on the seed GA
// benchmark: complete runs of the paper's §5.2.1 configuration on the
// 51-SNP study. Each sub-benchmark constructs its backend once — a
// serving engine is measured across the requests of the whole
// benchmark, so the native engine's memo cache warms exactly as it
// would across a real experiment — and every iteration performs one
// full GA run with a fresh seed. The evals/s metric divides the GA's
// requested-score count (the paper's cost metric) by wall-clock: the
// native engine's cache hits count toward its throughput, because
// that reuse is the optimization under test. The pvm backend carries
// its emulated 2004 per-message network latency; the pool backend is
// the same protocol at zero network cost, for attribution.
func BenchmarkBackendGA(b *testing.B) {
	d := benchDataset(b)
	for _, bk := range []struct {
		name    string
		backend Backend
	}{
		{"native", BackendNative},
		{"pool", BackendPool},
		{"pvm", BackendPVM},
	} {
		b.Run("backend="+bk.name, func(b *testing.B) {
			s, err := NewSession(d, WithBackend(bk.backend))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var evals int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := s.Run(context.Background(), WithGAConfig(GAConfig{
					Seed: uint64(i) + 1, MaxGenerations: 2000,
				}))
				if err != nil {
					b.Fatal(err)
				}
				evals += res.TotalEvaluations
			}
			b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// BenchmarkIslandGA compares the asynchronous island model against
// the synchronous engine backend on the 249-SNP preset — the workload
// the island model exists for. Both modes run complete GA runs to
// convergence over the same native engine with the same worker count.
// The island mode wins wall-clock for two reasons: its islands evolve
// concurrently with no generation barrier (every worker stays busy),
// and its stagnation rule is local — an island that has converged
// stops consuming evaluations while the others continue, where the
// synchronous GA keeps breeding every subpopulation until the global
// rule fires. Representative single-CPU result: ~11s per island run
// vs ~23s per synchronous run, at roughly half the evaluations.
func BenchmarkIslandGA(b *testing.B) {
	d, err := Paper249Dataset(42)
	if err != nil {
		b.Fatal(err)
	}
	const workers = 8 // the acceptance scenario: >= 4 workers
	cfg := GAConfig{
		StagnationLimit:     25,
		ImmigrantStagnation: 10,
		MaxGenerations:      2000,
	}
	for _, mode := range []struct {
		name    string
		islands int
	}{
		{"sync", 0},
		{"islands=5", 5},
	} {
		b.Run("mode="+mode.name, func(b *testing.B) {
			sess, err := NewSession(d, WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			defer sess.Close()
			var evals int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := cfg
				c.Seed = uint64(i) + 1
				opts := []Option{WithGAConfig(c)}
				if mode.islands > 0 {
					opts = append(opts, WithIslands(mode.islands), WithMigration(5, 1))
				}
				res, err := sess.Run(context.Background(), opts...)
				if err != nil {
					b.Fatal(err)
				}
				evals += res.TotalEvaluations
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/run")
			b.ReportMetric(float64(evals)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}

// BenchmarkRace pins the racing coordinator's cache-sharing dividend:
// the same 4-lane portfolio (ga and stpga, each on T1 and AA) run
// once as a race over a single session — lanes of one statistic
// sharing one memo cache — and once as four sequential runs on fresh
// sessions. When both modes run, the benchmark fails unless the race's
// computed/run is strictly below the sequential arm's: a race that
// computes as much as four cold runs means the lanes stopped sharing
// the cache. TestRaceCheaperThanSequential checks the same property in
// plain go test.
func BenchmarkRace(b *testing.B) {
	d := benchDataset(b)
	lanes := []RaceLaneSpec{
		{Optimizer: "ga", Statistic: "T1"},
		{Optimizer: "stpga", Statistic: "T1"},
		{Optimizer: "ga", Statistic: "AA"},
		{Optimizer: "stpga", Statistic: "AA"},
	}
	cfg := GAConfig{
		MinSize: 2, MaxSize: 3, PopulationSize: 24,
		PairsPerGeneration: 8, StagnationLimit: 12,
		ImmigrantStagnation: 5, MaxGenerations: 200, Seed: 21,
	}
	ctx := context.Background()
	runPortfolio := func(b *testing.B, portfolios [][]RaceLaneSpec) int64 {
		var computed int64
		for _, portfolio := range portfolios {
			s, err := NewSession(d)
			if err != nil {
				b.Fatal(err)
			}
			job, err := s.Race(ctx, RaceSpec{Lanes: portfolio, SubsetSize: 3, Config: &cfg})
			if err != nil {
				s.Close()
				b.Fatal(err)
			}
			if _, err := job.Wait(); err != nil {
				s.Close()
				b.Fatal(err)
			}
			if rep := job.Report(); rep.Engine != nil {
				computed += rep.Engine.Computed
			}
			s.Close()
		}
		return computed
	}
	perRun := make(map[string]float64)
	for _, mode := range []struct {
		name       string
		portfolios [][]RaceLaneSpec
	}{
		{"race", [][]RaceLaneSpec{lanes}},
		{"sequential", [][]RaceLaneSpec{
			{lanes[0]}, {lanes[1]}, {lanes[2]}, {lanes[3]},
		}},
	} {
		b.Run("mode="+mode.name, func(b *testing.B) {
			var computed int64
			for i := 0; i < b.N; i++ {
				computed += runPortfolio(b, mode.portfolios)
			}
			perRun[mode.name] = float64(computed) / float64(b.N)
			b.ReportMetric(perRun[mode.name], "computed/run")
			b.ReportMetric(float64(computed)/b.Elapsed().Seconds(), "evals/s")
		})
	}
	raced, okRace := perRun["race"]
	sequential, okSeq := perRun["sequential"]
	if okRace && okSeq && raced >= sequential {
		b.Fatalf("mode=race computed %.0f evaluations/run, mode=sequential %.0f: racing must compute strictly fewer",
			raced, sequential)
	}
}

// BenchmarkPackedKernel compares the packed 2-bit counting kernel
// against the byte-per-genotype reference on three study shapes: the
// paper's 51- and 249-SNP presets and a 12000-SNP synthetic study of
// the same case/control size.
//
// stage=count is the kernel itself — the per-SNP genotype-class
// counting that feeds allele frequencies and the HWE QC filter, word-
// parallel masked popcounts (Packed.AlleleFreq / Packed.HWETest)
// versus the byte row scan (Dataset.AlleleFreq / Dataset.HWETest);
// both finish through the same shared float arithmetic, so the timing
// gap is pure counting. This is where the PLINK-style representation
// pays, and snps=249/stage=count/gate=ratio enforces it: the packed
// sweep must stay >= 2x the byte sweep on the 249-SNP preset, judged
// by the median byte/packed ratio (reported as the byte/packed metric)
// over at least five rounds that each time both arms back to back.
//
// stage=pipeline is the honest end-to-end number — full fitness
// evaluations (EH-DIALL per group, concatenation, CLUMP T1) through
// the scratch path. Both kernels run the identical shared EM core on
// identical pattern groups (that is the bit-identity contract), so the
// end-to-end gap is only the grouping/tally fraction of an evaluation,
// a few percent at the paper's shapes.
func BenchmarkPackedKernel(b *testing.B) {
	shapes := []struct {
		name string
		mk   func() (*Dataset, error)
	}{
		{"snps=51", func() (*Dataset, error) { return Paper51Dataset(42) }},
		{"snps=249", func() (*Dataset, error) { return Paper249Dataset(42) }},
		{"snps=12000", func() (*Dataset, error) {
			return GenerateDataset(GeneratorConfig{
				NumSNPs: 12000, NumAffected: 88, NumUnaffected: 88,
				MissingRate:       0.01,
				RiskHaplotypeFreq: 0.3,
				Disease: DiseaseModel{
					CausalSites: []int{4000, 8000}, RiskAlleles: []uint8{1, 1},
					BaseRisk: 0.15, HaplotypeEffect: 0.6,
				},
				Seed: 9,
			})
		}},
	}
	for _, shape := range shapes {
		d, err := shape.mk()
		if err != nil {
			b.Fatal(err)
		}

		// stage=count: one iteration = the full QC sweep (allele
		// frequencies + HWE for every SNP). The packed table is built
		// once, as every consumer holds it; the byte side gets its row
		// selection prebuilt so neither arm allocates in the loop.
		p := genotype.PackDataset(d)
		mask := genotype.NewPlaneMask(d.NumIndividuals(), nil)
		rows := make([]int, d.NumIndividuals())
		for i := range rows {
			rows[i] = i
		}
		sweep := map[string]func(b *testing.B){
			"packed": func(b *testing.B) {
				for j := 0; j < p.NumSNPs(); j++ {
					p.AlleleFreq(j)
					if _, err := p.HWETest(j, mask); err != nil {
						b.Fatal(err)
					}
				}
			},
			"byte": func(b *testing.B) {
				for j := 0; j < d.NumSNPs(); j++ {
					d.AlleleFreq(j)
					if _, err := d.HWETest(j, rows); err != nil {
						b.Fatal(err)
					}
				}
			},
		}
		for _, kname := range []string{"packed", "byte"} {
			one := sweep[kname]
			b.Run(shape.name+"/stage=count/kernel="+kname, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					one(b)
				}
				b.ReportMetric(float64(b.N*d.NumSNPs())/b.Elapsed().Seconds(), "snps/s")
			})
		}
		if shape.name == "snps=249" {
			b.Run(shape.name+"/stage=count/gate=ratio", func(b *testing.B) {
				countGate(b, sweep["packed"], sweep["byte"])
			})
		}

		// stage=pipeline: a fixed pool of size-5 site sets (the paper's
		// typical haplotype width), identical across both kernels.
		r := rng.New(7)
		sets := make([][]int, 64)
		for i := range sets {
			sets[i] = r.Sample(d.NumSNPs(), 5)
			genotype.SortSites(sets[i])
		}
		for _, kn := range []struct {
			name   string
			packed bool
		}{{"packed", true}, {"byte", false}} {
			b.Run(shape.name+"/stage=pipeline/kernel="+kn.name, func(b *testing.B) {
				pipe, err := fitness.NewPipelineKernel(d, T1, ehdiall.Config{}, kn.packed)
				if err != nil {
					b.Fatal(err)
				}
				scr := fitness.NewScratch()
				for _, s := range sets { // size every scratch buffer
					if _, err := pipe.EvaluateScratch(s, scr); err != nil {
						b.Fatal(err)
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := pipe.EvaluateScratch(sets[i%len(sets)], scr); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "evals/s")
			})
		}
	}
}

// countGate is BenchmarkPackedKernel's >= 2x check on the counting
// sweep. One round times 50 packed sweeps and 50 byte sweeps back to
// back, alternating which arm goes first so neither always runs on a
// warmer cache; each b.N iteration is one round, with at least five
// rounds per call. A single ratio swings widely on a noisy 1-CPU
// runner, so the gate judges the median.
func countGate(b *testing.B, packed, byteRef func(*testing.B)) {
	const sweeps = 50
	timeArm := func(sweep func(*testing.B)) time.Duration {
		t0 := time.Now()
		for k := 0; k < sweeps; k++ {
			sweep(b)
		}
		return time.Since(t0)
	}
	ratios := make([]float64, max(b.N, 5))
	for i := range ratios {
		var p, r time.Duration
		if i%2 == 0 {
			p = timeArm(packed)
			r = timeArm(byteRef)
		} else {
			r = timeArm(byteRef)
			p = timeArm(packed)
		}
		ratios[i] = float64(r) / float64(p)
	}
	slices.Sort(ratios)
	n := len(ratios)
	median := (ratios[(n-1)/2] + ratios[n/2]) / 2
	b.ReportMetric(median, "byte/packed")
	if median < 2 {
		b.Fatalf("packed counting sweep is only %.2fx the byte reference (median of %d rounds, min %.2fx, max %.2fx), want >= 2x",
			median, n, ratios[0], ratios[n-1])
	}
}

// BenchmarkLandscapeEnum regenerates the §3 exhaustive landscape study
// for sizes 2 and 3 at 51 SNPs (sizes the paper also enumerated).
func BenchmarkLandscapeEnum(b *testing.B) {
	d := benchDataset(b)
	for i := 0; i < b.N; i++ {
		rep, err := exp.Landscape(context.Background(), d, exp.LandscapeParams{MinSize: 2, MaxSize: 3, Workers: 0})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Summaries[0].Count == 0 {
			b.Fatal("enumeration empty")
		}
	}
}

// BenchmarkRobust249 regenerates the §5.2 robustness check on the
// 249-SNP study shape (reduced to 2 runs).
func BenchmarkRobust249(b *testing.B) {
	d, err := Paper249Dataset(42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := benchGAConfig()
	cfg.StagnationLimit = 15
	var jac float64
	for i := 0; i < b.N; i++ {
		res, err := exp.Robustness(context.Background(), d, exp.RobustParams{Runs: 2, Seed: uint64(i), GA: cfg})
		if err != nil {
			b.Fatal(err)
		}
		jac = res.MeanJaccardBySize[6]
	}
	b.ReportMetric(jac, "jaccard")
}

// BenchmarkShardedEval pins the cost of sharded evaluation against the
// monolithic pipeline: the same batch of width-2 windows over a wide
// synthetic study, scored by the resident native backend, an in-memory
// sharded engine, and a spill-backed sharded engine. A fresh engine per
// iteration keeps the memo cache cold — this measures the gather path,
// not the cache. perfbench's sweep-wide workload (BENCHMARK.json)
// measures a sharded sweep end to end.
func BenchmarkShardedEval(b *testing.B) {
	d, err := GenerateDataset(GeneratorConfig{
		NumSNPs: 2000, NumAffected: 60, NumUnaffected: 60,
		RiskHaplotypeFreq: 0.3,
		Disease: DiseaseModel{
			CausalSites: []int{600, 1400}, RiskAlleles: []uint8{1, 1},
			BaseRisk: 0.15, HaplotypeEffect: 0.6,
		},
		Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	var windows [][]int
	for s := 0; s+2 <= d.NumSNPs(); s += 3 {
		windows = append(windows, []int{s, s + 1})
	}
	const shardSize = 256
	spillDir := b.TempDir()
	engines := map[string]func() (ParallelEvaluator, error){
		"monolithic": func() (ParallelEvaluator, error) { return NewBackend(d, T1, BackendNative, 0) },
		"sharded":    func() (ParallelEvaluator, error) { return NewShardedEngine(d, T1, shardSize, "", 0) },
		"spill":      func() (ParallelEvaluator, error) { return NewShardedEngine(d, T1, shardSize, spillDir, 0) },
	}
	for _, name := range []string{"monolithic", "sharded", "spill"} {
		mk := engines[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ev, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				_, errs := ev.EvaluateBatch(windows)
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
				ev.Close()
			}
			b.ReportMetric(float64(len(windows)*b.N)/b.Elapsed().Seconds(), "evals/s")
		})
	}
}
