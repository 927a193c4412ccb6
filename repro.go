// Package repro is a from-scratch Go reproduction of "A Parallel
// Adaptive GA for Linkage Disequilibrium in Genomics"
// (Vermeulen-Jourdan, Dhaenens, Talbi — IPDPS 2004).
//
// The library searches case/control SNP datasets for haplotypes
// (associations of 2–6 SNPs) that explain a disease status, scoring
// each candidate with the paper's EH-DIALL → CLUMP statistical
// pipeline and exploring the space with a multipopulation adaptive
// genetic algorithm. Evaluation runs, by default, on the native
// concurrent engine (a goroutine worker pool with a memoizing fitness
// cache); the paper's synchronous master/slave protocol and its PVM-3
// simulation remain available as pluggable backends for fidelity
// experiments.
//
// This package is the public facade: it re-exports the user-facing
// types of the internal packages and provides the Session API for the
// common workflows. The building blocks live in internal/ (genotype
// model, synthetic population generator, linkage disequilibrium,
// EH-DIALL EM estimator, CLUMP statistics, fitness pipeline, the GA
// itself, master/slave evaluation, landscape analysis, baselines and
// the experiment harness).
//
// Quick start — a Session owns the dataset plus its evaluation
// backend, so the memoizing fitness cache persists across runs:
//
//	data, _ := repro.Paper51Dataset(1)
//	session, _ := repro.NewSession(data)
//	defer session.Close()
//	result, _ := session.Run(ctx, repro.WithGAConfig(repro.GAConfig{Seed: 1}))
//	for size, best := range result.BestBySize {
//	    fmt.Printf("size %d: %s\n", size, best)
//	}
//
// Runs honor ctx end to end: cancellation or a deadline stops the GA
// within one generation and returns the partial result together with
// an error wrapping ErrCanceled.
//
// Two GA engines share one set of operators: the synchronous
// paper-fidelity engine (the default; bit-reproducible under every
// backend for a fixed seed) and an asynchronous island model
// (WithIslands, tuned by WithMigration) that partitions the per-size
// subpopulations across concurrently evolving islands exchanging
// elites over conflating channels — no generation barrier, local
// convergence per island, per-island statistics in GAResult.Islands.
// WithIslands(1) is guaranteed bit-identical to the synchronous
// engine; see internal/island for the full determinism contract.
//
// For a background run with streaming progress, use Session.Start
// and the returned Job:
//
//	job, _ := session.Start(ctx)
//	for entry := range job.Progress() {
//	    fmt.Printf("gen %d: %v\n", entry.Generation, entry.BestBySize)
//	}
//	result, err := job.Wait() // or job.Stop() for a partial result
package repro

import (
	"fmt"
	"io"

	"repro/internal/clump"
	"repro/internal/core"
	"repro/internal/ehdiall"
	"repro/internal/engine"
	"repro/internal/fitness"
	"repro/internal/genotype"
	"repro/internal/master"
	"repro/internal/popgen"
	"repro/internal/pvm"
)

// Re-exported data model types.
type (
	// Dataset is a case/control SNP study table.
	Dataset = genotype.Dataset
	// Individual is one study subject.
	Individual = genotype.Individual
	// SNP is one biallelic marker.
	SNP = genotype.SNP
	// Genotype is the per-SNP diploid genotype coding.
	Genotype = genotype.Genotype
	// Status is the affection status of an individual.
	Status = genotype.Status
)

// Affection statuses.
const (
	Affected   = genotype.Affected
	Unaffected = genotype.Unaffected
	Unknown    = genotype.Unknown
)

// Re-exported GA types.
type (
	// GAConfig holds the GA parameters (§5.2.1 defaults apply).
	GAConfig = core.Config
	// GAResult is a finished run's outcome.
	GAResult = core.Result
	// Haplotype is one GA individual (a SNP association).
	Haplotype = core.Haplotype
	// TraceEntry is a per-generation snapshot. In island mode (see
	// WithIslands) each entry describes one island's local generation
	// and is stamped with TraceEntry.Island.
	TraceEntry = core.TraceEntry
	// IslandStat is one island's share of a multi-island GAResult:
	// hosted sizes, local counters, and migration traffic.
	IslandStat = core.IslandStat
)

// Statistic selects the CLUMP statistic used as fitness.
type Statistic = clump.Statistic

// The four CLUMP statistics (the paper's fitness is T1 by default).
const (
	T1 = clump.T1
	T2 = clump.T2
	T3 = clump.T3
	T4 = clump.T4
	// AA is the canonical allelic-association measure of Scholz &
	// Hasenclever: the strongest 2-way clumping of the haplotype
	// table scored as a sample-size-free association on [0, 1).
	AA = clump.AA
)

// Evaluator scores haplotypes; see NewEvaluator and
// NewParallelEvaluator.
type Evaluator = fitness.Evaluator

// GeneratorConfig configures the synthetic dataset generator that
// substitutes for the paper's proprietary Lille data.
type GeneratorConfig = popgen.Config

// DiseaseModel plants an epistatic risk haplotype in generated data.
type DiseaseModel = popgen.DiseaseModel

// Paper51Dataset generates the default 51-SNP study (53 affected, 53
// healthy, 70 unknown individuals) with the planted risk haplotype on
// SNPs 8, 12, 15, 21, 32 and 43 — the SNP numbers of the paper's best
// size-6 haplotype.
func Paper51Dataset(seed uint64) (*Dataset, error) {
	return popgen.Generate(popgen.Paper51(seed))
}

// Paper249Dataset generates the paper's larger 249-SNP study shape.
func Paper249Dataset(seed uint64) (*Dataset, error) {
	return popgen.Generate(popgen.Paper249(seed))
}

// GenerateDataset runs the synthetic generator with a custom
// configuration.
func GenerateDataset(cfg GeneratorConfig) (*Dataset, error) {
	return popgen.Generate(cfg)
}

// ReadDataset parses a dataset from its text table format.
func ReadDataset(r io.Reader) (*Dataset, error) { return genotype.Read(r) }

// ReadPEDDataset parses a LINKAGE-style pedigree file ("pre-makeped"
// layout, the format the original EH-DIALL tool chain consumed) with
// numSNPs markers. LINKAGE files do not carry the marker count, so it
// must be supplied.
func ReadPEDDataset(r io.Reader, numSNPs int) (*Dataset, error) {
	return genotype.ReadPED(r, numSNPs)
}

// ReadDatasetFile parses a dataset file.
func ReadDatasetFile(path string) (*Dataset, error) { return genotype.ReadFile(path) }

// WriteDataset serializes a dataset in the text table format.
func WriteDataset(w io.Writer, d *Dataset) error { return genotype.Write(w, d) }

// NewEvaluator builds the paper's Figure 3 evaluation pipeline
// (EH-DIALL per status group, concatenation, CLUMP statistic) over the
// dataset, on the packed 2-bit counting kernel. The evaluator is safe
// for concurrent use.
func NewEvaluator(d *Dataset, stat Statistic) (Evaluator, error) {
	return fitness.NewPipeline(d, stat, ehdiall.Config{})
}

// ParallelEvaluator is a synchronous master/slave evaluator (§4.5).
// Close it when done.
type ParallelEvaluator interface {
	Evaluator
	// EvaluateBatch evaluates a whole generation with a synchronous
	// barrier; results are positional.
	EvaluateBatch(batch [][]int) ([]float64, []error)
	// Slaves returns the worker count.
	Slaves() int
	// Close stops the slaves.
	Close()
}

// NewParallelEvaluator wraps the Figure 3 pipeline in a master/slave
// pool with the given number of slaves (0 = one per CPU). This is the
// paper-fidelity goroutine backend; NewEngine is the faster native
// engine.
func NewParallelEvaluator(d *Dataset, stat Statistic, slaves int) (ParallelEvaluator, error) {
	pipe, err := fitness.NewPipeline(d, stat, ehdiall.Config{})
	if err != nil {
		return nil, err
	}
	return master.NewPool(pipe, slaves)
}

// NativeEngine is the native concurrent evaluation engine: a goroutine
// worker pool over the Figure 3 pipeline with a sharded memoizing
// fitness cache (see internal/engine for the cache-key
// canonicalization rule). It implements ParallelEvaluator and exposes
// cumulative counters through its Report method.
type NativeEngine = engine.Engine

// EngineReport is the counters report of an evaluation backend: cache
// hit-rate, computed evaluations, and per-worker throughput.
type EngineReport = fitness.Report

// NewEngine builds a native engine over the dataset with the given
// number of workers (0 = one per CPU), on the packed 2-bit counting
// kernel. Close it when done.
func NewEngine(d *Dataset, stat Statistic, workers int) (*NativeEngine, error) {
	return engine.NewForDataset(d, stat, engine.Options{Workers: workers})
}

// Backend selects the parallel evaluation backend behind a Session.
type Backend int

const (
	// BackendNative is the default: the native worker-pool engine
	// with the memoizing fitness cache.
	BackendNative Backend = iota
	// BackendPool is the paper-fidelity goroutine master/slave pool
	// without memoization.
	BackendPool
	// BackendPVM routes every evaluation through the PVM-3 simulation
	// (packed messages over the virtual machine) with
	// pvm.DefaultMessageLatency of emulated network transit per
	// message, reproducing both the structure and the communication
	// cost of the 2004 implementation. Use master.NewPVMEvaluator
	// directly for a PVM backend with custom (or zero) latency.
	BackendPVM
)

// NewBackend constructs the selected evaluation backend over the
// dataset with the given number of workers (0 = one per CPU). Every
// backend runs the packed 2-bit counting kernel, and a fixed GA seed
// produces the identical result on each. Close the returned evaluator
// when done.
func NewBackend(d *Dataset, stat Statistic, backend Backend, workers int) (ParallelEvaluator, error) {
	switch backend {
	case BackendNative:
		return NewEngine(d, stat, workers)
	case BackendPool:
		return NewParallelEvaluator(d, stat, workers)
	case BackendPVM:
		pipe, err := fitness.NewPipeline(d, stat, ehdiall.Config{})
		if err != nil {
			return nil, err
		}
		return master.NewPVMEvaluator(pipe, workers, pvm.WithLatency(pvm.DefaultMessageLatency))
	}
	return nil, fmt.Errorf("repro: unknown backend %d", backend)
}
