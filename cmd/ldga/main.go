// Command ldga runs the paper's parallel adaptive multipopulation GA
// on a case/control dataset and reports the best haplotype per size,
// with optional CLUMP Monte-Carlo significance for the winners.
//
// The run is cancellable: SIGINT/SIGTERM stop the GA gracefully within
// one generation and the partial results found so far are reported.
//
// Usage:
//
//	ldga -preset 51 -seed 1                 # synthetic paper-shaped study
//	ldga -data data.txt -maxsize 6 -mc 1000 # a dataset generated by ldgen
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro"
	"repro/internal/cli"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
	"repro/internal/genotype"
	"repro/internal/ld"
	"repro/internal/popgen"
	"repro/internal/rng"
)

func main() {
	var (
		dataPath   = flag.String("data", "", "dataset file (from ldgen; .ped files need -pedsnps); empty uses -preset")
		pedSNPs    = flag.Int("pedsnps", 0, "marker count when -data is a LINKAGE .ped file")
		preset     = flag.Int("preset", 51, "synthetic preset when -data is empty: 51 or 249")
		seed       = flag.Uint64("seed", 1, "GA and dataset seed")
		minSize    = flag.Int("minsize", 2, "smallest haplotype size")
		maxSize    = flag.Int("maxsize", 6, "largest haplotype size (paper: 6)")
		popSize    = flag.Int("pop", 150, "total population size (paper: 150)")
		stagnation = flag.Int("stagnation", 100, "generations without improvement before stopping (paper: 100)")
		riStag     = flag.Int("ri", 20, "stagnant generations before random immigrants (paper: 20)")
		pmut       = flag.Float64("pmut", 0.9, "global mutation rate (paper: 0.9)")
		pcross     = flag.Float64("pcross", 0.8, "global crossover rate")
		slaves     = flag.Int("slaves", 0, "evaluation workers/slaves (0 = one per CPU)")
		backend    = flag.String("backend", "native", "evaluation backend: native (worker pool + memo cache), pool (paper's goroutine master/slave), pvm (PVM-3 simulation)")
		islands    = flag.Int("islands", 0, "run the async island model with this many islands (0 = synchronous engine; clamped to one island per size)")
		mInterval  = flag.Int("minterval", 0, "island migration interval in generations (0 = default 10; needs -islands)")
		mCount     = flag.Int("mcount", 0, "elites per subpopulation per migration (0 = default 1; needs -islands)")
		statName   = flag.String("stat", "T1", "CLUMP fitness statistic: "+cli.StatisticList())
		raceLanes  = flag.String("race", "", "race mode: comma-separated optimizer[:statistic] lanes (optimizers: "+strings.Join(repro.RaceOptimizers(), ", ")+"; statistics: "+cli.StatisticList()+"; empty statistic uses -stat)")
		raceSubset = flag.Int("racesubset", 0, "subset size the stpga/tabu/exhaustive lanes search (0 = 4; needs -race)")
		raceBudget = flag.Int64("racebudget", 0, "total evaluation budget across all lanes, 0 = unlimited (needs -race)")
		raceStag   = flag.Int64("racestagnation", 0, "cut a trailing lane after this many of its own evaluations without improvement, 0 = off (needs -race)")
		mcReps     = flag.Int("mc", 0, "Monte-Carlo replicates for final p-values (0 = skip)")
		maxDPrime  = flag.Float64("td", 0, "pairwise |D'| feasibility threshold t_d (0 = off)")
		minMAF     = flag.Float64("tf", 0, "minor allele frequency threshold t_f (0 = off)")
		trace      = flag.Bool("trace", false, "print per-generation progress")
		report     = flag.Bool("report", false, "print the full EH-DIALL/CLUMP report for each winner")
	)
	flag.Parse()

	// SIGINT/SIGTERM cancel the run context; the GA winds down within
	// one generation and the partial results are reported below.
	ctx, stop := cli.SignalContext()
	defer stop()

	stat, err := cli.ParseStatistic(*statName)
	if err != nil {
		fatalf("%v", err)
	}
	be, err := cli.ParseBackend(*backend)
	if err != nil {
		fatalf("%v", err)
	}

	data, err := loadData(*dataPath, *pedSNPs, *preset, *seed)
	if err != nil {
		fatalf("%v", err)
	}
	a, u, q := data.CountByStatus()
	fmt.Printf("dataset: %d SNPs, %d individuals (%d affected / %d unaffected / %d unknown)\n",
		data.NumSNPs(), data.NumIndividuals(), a, u, q)

	cfg := repro.GAConfig{
		MinSize:             *minSize,
		MaxSize:             *maxSize,
		PopulationSize:      *popSize,
		StagnationLimit:     *stagnation,
		ImmigrantStagnation: *riStag,
		GlobalMutationRate:  *pmut,
		GlobalCrossoverRate: *pcross,
		Seed:                *seed,
	}
	if *maxDPrime > 0 || *minMAF > 0 {
		fmt.Printf("computing pairwise disequilibrium for feasibility constraints (t_d=%v, t_f=%v)...\n", *maxDPrime, *minMAF)
		matrix := ld.ComputeMatrix(data)
		mafs := ld.MAFs(data)
		constraint := ld.Constraint{MaxAbsDPrime: *maxDPrime, MinMAF: *minMAF}
		cfg.Constraint = func(sites []int) bool {
			return constraint.FeasibleSet(matrix, mafs, sites)
		}
	}

	sess, err := repro.NewSession(data,
		repro.WithStatistic(stat),
		repro.WithBackend(be),
		repro.WithWorkers(*slaves),
		repro.WithGAConfig(cfg))
	if err != nil {
		fatalf("session: %v", err)
	}
	defer sess.Close()
	fmt.Printf("%s evaluation backend: %d workers, fitness statistic %s\n", *backend, sess.Workers(), stat)

	if *raceLanes != "" {
		if *islands > 0 || *mInterval != 0 || *mCount != 0 {
			fatalf("-race runs its own lanes; -islands, -minterval and -mcount do not apply")
		}
		runRace(ctx, sess, data, *raceLanes, *raceSubset, *raceBudget, *raceStag)
		return
	}

	// The trace printer runs synchronously via WithTrace so no
	// generation line is ever dropped; the Job's conflated Progress
	// stream is only drained for completion (it trades completeness
	// for never blocking the GA).
	var runOpts []repro.Option
	if *islands < 0 {
		fatalf("-islands must be >= 0 (got %d)", *islands)
	}
	if *islands > 0 {
		runOpts = append(runOpts, repro.WithIslands(*islands))
		if *mInterval != 0 || *mCount != 0 {
			runOpts = append(runOpts, repro.WithMigration(*mInterval, *mCount))
		}
		fmt.Printf("island mode: %d islands requested (one per size at most), migration interval %d, count %d\n",
			*islands, orDefault(*mInterval, 10), orDefault(*mCount, 1))
	} else if *mInterval != 0 || *mCount != 0 {
		fatalf("-minterval and -mcount require -islands")
	}
	if *trace {
		runOpts = append(runOpts, repro.WithTrace(func(e repro.TraceEntry) {
			if e.Generation%10 == 0 || e.Immigrants > 0 {
				prefix := ""
				if e.Island > 0 {
					prefix = fmt.Sprintf("isl %d  ", e.Island)
				}
				fmt.Printf("%sgen %4d  evals %7d  stagnation %3d  mut %v  xover %v  immigrants %d\n",
					prefix, e.Generation, e.Evaluations, e.Stagnation,
					fmtRates(e.MutationRates), fmtRates(e.CrossoverRates), e.Immigrants)
			}
		}))
	}
	start := time.Now()
	job, err := sess.Start(ctx, runOpts...)
	if err != nil {
		fatalf("start: %v", err)
	}
	for range job.Progress() {
	}
	res, err := job.Wait()
	interrupted := false
	if err != nil {
		if !errors.Is(err, repro.ErrCanceled) {
			fatalf("run: %v", err)
		}
		interrupted = true
		fmt.Printf("\ninterrupted after %s — reporting partial results\n",
			time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("\nfinished in %s: %d generations, %d evaluations, converged=%v\n",
			time.Since(start).Round(time.Millisecond), res.Generations, res.TotalEvaluations, res.Converged)
	}
	if r, ok := sess.Report(); ok {
		fmt.Printf("engine: %d computed / %d requested, cache hit-rate %.1f%% (%d entries, %d coalesced), %.0f evals/s (%.0f per worker)\n",
			r.Computed, r.Requests, 100*r.HitRate(), r.CacheEntries, r.Coalesced, r.Throughput(), r.WorkerThroughput())
	}
	fmt.Printf("final mutation rates (snp/reduction/augmentation): %v\n", fmtRates(res.MutationRates))
	fmt.Printf("final crossover rates (intra/inter): %v\n", fmtRates(res.CrossoverRates))
	for _, st := range res.Islands {
		fmt.Printf("island %d (sizes %v): %d generations, %d evaluations, converged=%v, migration sent/received/dropped %d/%d/%d\n",
			st.Island, st.Sizes, st.Generations, st.Evaluations, st.Converged,
			st.Sent, st.Received, st.Dropped)
	}
	fmt.Println()

	// The detail pipeline (Monte-Carlo, full reports) shares the
	// session's statistic but runs outside the GA's cache; build it
	// only when something below will use it.
	var pipe *fitness.Pipeline
	if (*mcReps > 0 || *report) && !interrupted {
		pipe, err = fitness.NewPipeline(data, stat, ehdiall.Config{})
		if err != nil {
			fatalf("pipeline: %v", err)
		}
	}
	sizes := make([]int, 0, len(res.BestBySize))
	for s := range res.BestBySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	if len(sizes) == 0 {
		fmt.Println("no haplotypes found (run was stopped before the first generation completed)")
	}
	mcSrc := rng.New(*seed ^ 0x5eed)
	for _, s := range sizes {
		best := res.BestBySize[s]
		fmt.Printf("size %d: SNPs %v  fitness %.3f  (found at evaluation %d)\n",
			s, data.SNPNames(best.Sites), best.Fitness, res.EvalsAtBest[s])
		if *mcReps > 0 && !interrupted {
			pv, err := pipe.MonteCarloP(best.Sites, *mcReps, mcSrc)
			if err != nil {
				fmt.Printf("        Monte-Carlo failed: %v\n", err)
				continue
			}
			fmt.Printf("        Monte-Carlo p-values (%d reps): T1=%.4f T2=%.4f T3=%.4f T4=%.4f AA=%.4f\n",
				pv.Replicates, pv.T1, pv.T2, pv.T3, pv.T4, pv.AA)
		}
		if *report && !interrupted {
			fmt.Println()
			if err := pipe.WriteReport(os.Stdout, data.SNPNames(best.Sites), best.Sites); err != nil {
				fmt.Printf("        report failed: %v\n", err)
			}
			fmt.Println()
		}
	}
	if interrupted {
		if *mcReps > 0 || *report {
			fmt.Println("(Monte-Carlo p-values and full reports skipped on interrupt)")
		}
		os.Exit(130)
	}
}

// runRace drives -race mode: every comma-separated optimizer:statistic
// lane races concurrently over the session's shared evaluation
// backend, with the live leaderboard printed as snapshots arrive.
// SIGINT cancels the race and reports the partial bests.
func runRace(ctx context.Context, sess *repro.Session, data *genotype.Dataset, lanes string, subset int, budget, stagnation int64) {
	spec := repro.RaceSpec{SubsetSize: subset, Budget: budget, Stagnation: stagnation}
	for _, field := range strings.Split(lanes, ",") {
		optimizer, statistic, _ := strings.Cut(strings.TrimSpace(field), ":")
		spec.Lanes = append(spec.Lanes, repro.RaceLaneSpec{
			Optimizer: strings.TrimSpace(optimizer),
			Statistic: strings.TrimSpace(statistic),
		})
	}
	start := time.Now()
	job, err := sess.Race(ctx, spec)
	if err != nil {
		fatalf("race: %v", err)
	}
	// The board channel is conflated (buffer 1, oldest dropped), so a
	// slow terminal naturally samples snapshots instead of lagging.
	for b := range job.Board() {
		fmt.Printf("board %4d  leader %-22s  evals %8d  shared hits %7d\n",
			b.Seq, b.Leader, b.TotalEvaluations, b.TotalSharedHits)
	}
	res, err := job.Wait()
	interrupted := err != nil
	if interrupted && !errors.Is(err, repro.ErrCanceled) {
		fatalf("race: %v", err)
	}
	if interrupted {
		fmt.Printf("\ninterrupted after %s — partial leaderboard:\n", time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("\nrace finished in %s: %d evaluations total, %d answered by the shared cache\n",
			time.Since(start).Round(time.Millisecond), res.TotalEvaluations, res.TotalSharedHits)
	}
	for i, ln := range res.Lanes {
		fmt.Printf("%2d. %-22s %-16s score %.3f  fitness %9.3f  evals %8d  shared %6d  SNPs %v\n",
			i+1, ln.Name, ln.State, ln.Score, ln.BestFitness, ln.Evaluations, ln.SharedHits,
			data.SNPNames(ln.BestSites))
	}
	if !interrupted && res.Winner.Name != "" {
		fmt.Printf("winner: %s (%s on %s)  fitness %.3f  SNPs %v\n",
			res.Winner.Name, res.Winner.Optimizer, res.Winner.Statistic,
			res.Winner.BestFitness, data.SNPNames(res.Winner.BestSites))
	}
	r := job.Report()
	if r.Engine != nil && r.Engine.Requests > 0 {
		fmt.Printf("engines: %d computed / %d requested, cache hit-rate %.1f%% (%d entries) across all statistics\n",
			r.Engine.Computed, r.Engine.Requests, 100*r.Engine.HitRate(), r.Engine.CacheEntries)
	}
	if interrupted {
		os.Exit(130)
	}
}

func loadData(path string, pedSNPs, preset int, seed uint64) (*genotype.Dataset, error) {
	if path != "" {
		if strings.HasSuffix(path, ".ped") {
			if pedSNPs <= 0 {
				return nil, fmt.Errorf("reading %s requires -pedsnps (LINKAGE files do not carry the marker count)", path)
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return genotype.ReadPED(f, pedSNPs)
		}
		return genotype.ReadFile(path)
	}
	switch preset {
	case 51:
		return popgen.Generate(popgen.Paper51(seed))
	case 249:
		return popgen.Generate(popgen.Paper249(seed))
	}
	return nil, fmt.Errorf("unknown preset %d (want 51 or 249)", preset)
}

// orDefault substitutes def for an unset (zero) flag value in
// informational output.
func orDefault(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func fmtRates(rates []float64) string {
	out := "["
	for i, r := range rates {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", r)
	}
	return out + "]"
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ldga: "+format+"\n", args...)
	os.Exit(1)
}
