// Package fitness implements the paper's Figure 3 evaluation pipeline
// for a candidate haplotype (a set of SNP columns):
//
//	selection of SNPs
//	  -> enumeration + EH-DIALL on affected people
//	  -> enumeration + EH-DIALL on unaffected people
//	  -> concatenation into a 2 x 2^k contingency table
//	  -> CLUMP statistic = fitness
//
// The Evaluator interface decouples the GA from the pipeline. Latency
// wraps an evaluator with injected delay that emulates the 2004
// cluster's per-evaluation cost for the speedup experiments; counting
// and memoization live in the evaluation engine (internal/engine).
package fitness

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/genotype"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Evaluator scores a haplotype given as a strictly increasing slice of
// SNP column indices. Implementations must be safe for concurrent use.
type Evaluator interface {
	// Evaluate returns the fitness of sites, or an error if sites is
	// invalid or cannot be scored.
	Evaluate(sites []int) (float64, error)
}

// Func adapts a function to the Evaluator interface.
type Func func(sites []int) (float64, error)

// Evaluate calls f.
func (f Func) Evaluate(sites []int) (float64, error) { return f(sites) }

// ErrEmptyGroup is returned when one of the case/control groups has no
// complete-case individual at the selected sites.
var ErrEmptyGroup = errors.New("fitness: a status group has no usable individuals at the selected sites")

// Pipeline is the EH-DIALL -> CLUMP evaluation of Figure 3. It is
// immutable after construction and safe for concurrent use. Every
// front-end (the resident dataset, the shard-aware evaluator) differs
// only in how it gathers the selected packed columns; the estimation
// and scoring body is this type's alone.
type Pipeline struct {
	data       *genotype.Dataset
	affected   []int
	unaffected []int
	stat       clump.Statistic
	em         ehdiall.Config

	// gather fills cols[i] with the packed column of sites[i]; nil
	// selects the byte reference kernel. The masks select the two
	// status groups in packed row geometry.
	gather          func(sites []int, cols []genotype.PackedColumn) error
	affMask, unMask genotype.PlaneMask

	// scratch pools per-call buffers for Evaluate callers that do not
	// hold their own Scratch (the engine's workers do, via
	// EvaluateScratch).
	scratch sync.Pool
}

// NewPipeline builds the evaluator for a dataset. Individuals with
// Unknown status are ignored, as in the paper's study. The statistic
// selects which CLUMP value is the fitness (the paper uses the raw
// chi-square T1 by default). Evaluation runs on the packed 2-bit
// kernel over the whole dataset, packed once here.
func NewPipeline(d *genotype.Dataset, stat clump.Statistic, em ehdiall.Config) (*Pipeline, error) {
	p, err := newPipeline(d, stat, em)
	if err != nil {
		return nil, err
	}
	packed := genotype.PackDataset(d)
	p.gather = func(sites []int, cols []genotype.PackedColumn) error {
		for i, s := range sites {
			cols[i] = packed.Col(s)
		}
		return nil
	}
	return p, nil
}

// NewGatherPipeline is NewPipeline with a caller-supplied column
// source: gather must fill cols[i] (len(cols) == len(sites)) with the
// packed column of sites[i], in d's row geometry, and be safe for
// concurrent use. The sites it sees have passed the pipeline's range
// and order checks. This is how the shard-aware evaluator reads only
// the shards a haplotype touches while sharing every other step.
func NewGatherPipeline(d *genotype.Dataset, stat clump.Statistic, em ehdiall.Config, gather func(sites []int, cols []genotype.PackedColumn) error) (*Pipeline, error) {
	if gather == nil {
		return nil, fmt.Errorf("fitness: nil gather")
	}
	p, err := newPipeline(d, stat, em)
	if err != nil {
		return nil, err
	}
	p.gather = gather
	return p, nil
}

// NewPipelineKernel is NewPipeline with an explicit kernel choice:
// packed selects the 2-bit popcount kernel, false the
// byte-per-genotype reference implementation. The two produce
// bit-identical results; the byte kernel is the oracle of the
// differential tests and the benchmark, never a production path.
func NewPipelineKernel(d *genotype.Dataset, stat clump.Statistic, em ehdiall.Config, packed bool) (*Pipeline, error) {
	if packed {
		return NewPipeline(d, stat, em)
	}
	return newPipeline(d, stat, em)
}

// newPipeline validates the inputs and builds a pipeline without a
// gather, that is, on the byte reference kernel.
func newPipeline(d *genotype.Dataset, stat clump.Statistic, em ehdiall.Config) (*Pipeline, error) {
	if d == nil {
		return nil, fmt.Errorf("fitness: nil dataset")
	}
	if !stat.Valid() {
		return nil, fmt.Errorf("fitness: invalid statistic %v", stat)
	}
	aff := d.ByStatus(genotype.Affected)
	un := d.ByStatus(genotype.Unaffected)
	if len(aff) == 0 || len(un) == 0 {
		return nil, fmt.Errorf("fitness: dataset needs both affected and unaffected individuals (have %d/%d)", len(aff), len(un))
	}
	return &Pipeline{
		data: d, affected: aff, unaffected: un, stat: stat, em: em,
		affMask: genotype.NewPlaneMask(d.NumIndividuals(), aff),
		unMask:  genotype.NewPlaneMask(d.NumIndividuals(), un),
	}, nil
}

// Dataset returns the underlying dataset (read-only by convention).
func (p *Pipeline) Dataset() *genotype.Dataset { return p.data }

func (p *Pipeline) checkSites(sites []int) error {
	if len(sites) == 0 {
		return fmt.Errorf("fitness: empty haplotype")
	}
	if len(sites) > ehdiall.MaxSNPs {
		return fmt.Errorf("fitness: haplotype size %d exceeds %d", len(sites), ehdiall.MaxSNPs)
	}
	prev := -1
	for _, s := range sites {
		if s <= prev {
			return fmt.Errorf("fitness: sites not strictly increasing: %v", sites)
		}
		if s < 0 || s >= p.data.NumSNPs() {
			return fmt.Errorf("fitness: site %d out of range [0,%d)", s, p.data.NumSNPs())
		}
		prev = s
	}
	return nil
}

// estimate runs the first steps of Figure 3 on scr: check the sites,
// gather their columns and run EH-DIALL once per status group. The
// returned Results alias scr's storage. A group without a usable
// individual is ErrEmptyGroup.
func (p *Pipeline) estimate(sites []int, scr *Scratch) (aff, un *ehdiall.Result, err error) {
	if err := p.checkSites(sites); err != nil {
		return nil, nil, err
	}
	if p.gather == nil {
		aff, err = ehdiall.EstimateDataset(p.data, p.affected, sites, p.em)
		if err == nil {
			un, err = ehdiall.EstimateDataset(p.data, p.unaffected, sites, p.em)
		}
	} else {
		if cap(scr.PackedCols) < len(sites) {
			scr.PackedCols = make([]genotype.PackedColumn, len(sites))
		}
		scr.PackedCols = scr.PackedCols[:len(sites)]
		if err := p.gather(sites, scr.PackedCols); err != nil {
			return nil, nil, err
		}
		aff, err = ehdiall.EstimatePacked(scr.PackedCols, p.affMask, p.em, &scr.Aff)
		if err == nil {
			un, err = ehdiall.EstimatePacked(scr.PackedCols, p.unMask, p.em, &scr.Un)
		}
	}
	if errors.Is(err, ehdiall.ErrNoData) {
		err = ErrEmptyGroup
	}
	if err != nil {
		return nil, nil, err
	}
	return aff, un, nil
}

// Evaluate runs the full pipeline and returns the CLUMP statistic.
func (p *Pipeline) Evaluate(sites []int) (float64, error) {
	scr, _ := p.scratch.Get().(*Scratch)
	if scr == nil {
		scr = NewScratch()
	}
	defer p.scratch.Put(scr)
	return p.EvaluateScratch(sites, scr)
}

// EvaluateScratch is Evaluate using caller-held scratch buffers — the
// engine's per-worker hot path. On the packed kernel the steady state
// allocates nothing per call.
func (p *Pipeline) EvaluateScratch(sites []int, scr *Scratch) (float64, error) {
	aff, un, err := p.estimate(sites, scr)
	if err != nil {
		return 0, err
	}
	return scr.Score(aff, un, p.stat)
}

// Details carries the intermediate products of one evaluation, used by
// reporting tools and tests.
type Details struct {
	// Fitness is the selected CLUMP statistic of the concatenated
	// table.
	Fitness float64
	// Affected and Unaffected are the per-group EH-DIALL results.
	Affected, Unaffected *ehdiall.Result
	// Clump holds all four CLUMP statistics.
	Clump clump.Result
}

// Details runs the pipeline and returns all intermediate results.
func (p *Pipeline) Details(sites []int) (*Details, error) {
	// A fresh scratch, because the returned Results alias its storage.
	aff, un, err := p.estimate(sites, NewScratch())
	if err != nil {
		return nil, err
	}
	table, err := ConcatTable(aff, un)
	if err != nil {
		return nil, err
	}
	cres, err := clump.Statistics(table)
	if err != nil {
		return nil, err
	}
	return &Details{
		Fitness:    cres.Get(p.stat),
		Affected:   aff,
		Unaffected: un,
		Clump:      cres,
	}, nil
}

// MonteCarloP runs CLUMP's Monte-Carlo significance test on the
// concatenated table of the given haplotype.
func (p *Pipeline) MonteCarloP(sites []int, replicates int, src *rng.RNG) (clump.PValues, error) {
	aff, un, err := p.estimate(sites, NewScratch())
	if err != nil {
		return clump.PValues{}, err
	}
	table, err := ConcatTable(aff, un)
	if err != nil {
		return clump.PValues{}, err
	}
	return clump.MonteCarlo{Replicates: replicates, Source: src}.Run(table)
}

// ConcatTable performs the paper's "Concatenation" step: the expected
// haplotype counts of the affected group become row 0 and those of the
// unaffected group row 1 of a 2 x 2^k table.
func ConcatTable(aff, un *ehdiall.Result) (*stats.Table, error) {
	if aff.K != un.K {
		return nil, fmt.Errorf("fitness: group estimations disagree on k: %d vs %d", aff.K, un.K)
	}
	t := stats.NewTable(2, 1<<aff.K)
	for j, c := range aff.ExpectedCounts() {
		t.Set(0, j, c)
	}
	for j, c := range un.ExpectedCounts() {
		t.Set(1, j, c)
	}
	return t, nil
}

// CanonicalSites returns sites in canonical form: strictly
// increasing, no duplicates. It is the one identity of a SNP set that
// the engine's memo cache and the race's shared-hit accounting both
// key on. The common case — already canonical, as the Evaluator
// contract requires — returns the input slice without allocating; a
// non-canonical input is copied, never modified.
func CanonicalSites(sites []int) []int {
	for i := 1; i < len(sites); i++ {
		if sites[i] <= sites[i-1] {
			c := append([]int(nil), sites...)
			sort.Ints(c)
			out := c[:1]
			for _, s := range c[1:] {
				if s != out[len(out)-1] {
					out = append(out, s)
				}
			}
			return out
		}
	}
	return sites
}

// AppendSiteKey appends the positional identity of a site set to dst,
// four bytes big-endian per site: enough for the >10^5-SNP studies the
// roadmap targets, where two bytes would silently alias columns. Pass
// CanonicalSites(sites) for a key that identifies the SNP set.
func AppendSiteKey(dst []byte, sites []int) []byte {
	for _, s := range sites {
		dst = append(dst, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return dst
}

// Latency wraps an evaluator and sleeps a fixed duration per call,
// emulating the paper's expensive 2004-era evaluation (6 ms for size
// 3 up to 201 ms for size 7) so that parallel speedup experiments
// exercise a realistic computation/communication ratio.
type Latency struct {
	inner Evaluator
	d     time.Duration
}

// NewLatency wraps an evaluator with a per-call delay.
func NewLatency(inner Evaluator, d time.Duration) *Latency {
	return &Latency{inner: inner, d: d}
}

// Evaluate sleeps then delegates.
func (l *Latency) Evaluate(sites []int) (float64, error) {
	if l.d > 0 {
		time.Sleep(l.d)
	}
	return l.inner.Evaluate(sites)
}
