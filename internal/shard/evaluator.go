package shard

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
	"repro/internal/genotype"
)

// Evaluator scores haplotypes over sharded columns: it gathers the few
// columns a candidate SNP subset touches from its Source and runs the
// same EH-DIALL → concatenation → CLUMP arithmetic as
// fitness.Pipeline — so its values are bit-identical to the monolithic
// path while its working set is the touched shards, not the table. The
// packed 2-bit kernel gathers each shard's pre-packed words.
//
// Evaluator implements fitness.ScratchEvaluator and
// engine.KeyFingerprinter: wrapped in an engine, each worker drives it
// through EvaluateScratch with a worker-owned scratch (the
// allocation-free batch path), and its memo-cache keys carry the
// fingerprints of the touched shards (fingerprint+range) instead of
// the flat dataset fingerprint, so cache entries are grouped by the
// shards that produce them. Safe for concurrent use; Evaluate callers
// without their own scratch draw one from a pool.
type Evaluator struct {
	src  Source
	stat clump.Statistic
	em   ehdiall.Config

	// affMask and unMask are the status groups in packed row geometry.
	affMask, unMask genotype.PlaneMask

	scratch sync.Pool // *fitness.Scratch
}

// NewEvaluator builds the shard-aware evaluator for the dataset served
// by src, on the packed 2-bit kernel. The row partition
// (affected/unaffected) comes from the dataset, exactly as
// fitness.NewPipeline derives it; Unknown-status individuals are
// ignored.
func NewEvaluator(src Source, d *genotype.Dataset, stat clump.Statistic, em ehdiall.Config) (*Evaluator, error) {
	if src == nil {
		return nil, fmt.Errorf("shard: nil source")
	}
	if d == nil {
		return nil, fmt.Errorf("shard: nil dataset")
	}
	if !stat.Valid() {
		return nil, fmt.Errorf("shard: invalid statistic %v", stat)
	}
	plan := src.Plan()
	if plan.Parent != d.Fingerprint() || plan.NumSNPs != d.NumSNPs() || plan.Rows != d.NumIndividuals() {
		return nil, fmt.Errorf("shard: source plan does not describe this dataset")
	}
	aff := d.ByStatus(genotype.Affected)
	un := d.ByStatus(genotype.Unaffected)
	if len(aff) == 0 || len(un) == 0 {
		return nil, fmt.Errorf("shard: dataset needs both affected and unaffected individuals (have %d/%d)", len(aff), len(un))
	}
	return &Evaluator{
		src:     src,
		stat:    stat,
		em:      em,
		affMask: genotype.NewPlaneMask(d.NumIndividuals(), aff),
		unMask:  genotype.NewPlaneMask(d.NumIndividuals(), un),
	}, nil
}

// Source returns the evaluator's shard source.
func (e *Evaluator) Source() Source { return e.src }

// NumSNPs returns the number of SNP columns available to haplotypes.
func (e *Evaluator) NumSNPs() int { return e.src.Plan().NumSNPs }

func (e *Evaluator) checkSites(sites []int) error {
	if len(sites) == 0 {
		return fmt.Errorf("shard: empty haplotype")
	}
	if len(sites) > ehdiall.MaxSNPs {
		return fmt.Errorf("shard: haplotype size %d exceeds %d", len(sites), ehdiall.MaxSNPs)
	}
	n := e.src.Plan().NumSNPs
	prev := -1
	for _, s := range sites {
		if s <= prev {
			return fmt.Errorf("shard: sites not strictly increasing: %v", sites)
		}
		if s < 0 || s >= n {
			return fmt.Errorf("shard: site %d out of range [0,%d)", s, n)
		}
		prev = s
	}
	return nil
}

// KeyFingerprint derives the memo-cache fingerprint of one canonical
// site set: an FNV-1a digest of the fingerprints of the shards the
// sites touch, in order. Site sets confined to the same shards share a
// fingerprint (the site indices themselves are the rest of the cache
// key), sets touching different shards never collide on it, and the
// value is stable across runs and processes — restored caches stay
// valid. Implements engine.KeyFingerprinter.
func (e *Evaluator) KeyFingerprint(sites []int) uint64 {
	plan := e.src.Plan()
	const (
		offset uint64 = 14695981039346656037
		prime  uint64 = 1099511628211
	)
	h := offset
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime
		}
	}
	last := -1
	for _, s := range sites {
		if s < 0 || s >= plan.NumSNPs {
			mix(plan.Parent) // out-of-range: engine rejects later; keep pure
			continue
		}
		if si := plan.ShardOf(s); si != last {
			mix(plan.Metas[si].Fingerprint)
			last = si
		}
	}
	return h
}

// Evaluate implements fitness.Evaluator: gather, estimate per group,
// concatenate, score. Callers without their own scratch (everything
// but the engine's workers) share a pool.
func (e *Evaluator) Evaluate(sites []int) (float64, error) {
	scr, _ := e.scratch.Get().(*fitness.Scratch)
	if scr == nil {
		scr = fitness.NewScratch()
	}
	defer e.scratch.Put(scr)
	return e.EvaluateScratch(sites, scr)
}

// EvaluateScratch is Evaluate using caller-held scratch buffers — the
// engine's per-worker hot path, allocation-free in steady state.
func (e *Evaluator) EvaluateScratch(sites []int, scr *fitness.Scratch) (float64, error) {
	if err := e.checkSites(sites); err != nil {
		return 0, err
	}
	if err := e.gather(sites, scr); err != nil {
		return 0, err
	}
	affRes, err := e.estimate(e.affMask, scr.PackedCols, &scr.Aff)
	if err != nil {
		return 0, err
	}
	unRes, err := e.estimate(e.unMask, scr.PackedCols, &scr.Un)
	if err != nil {
		return 0, err
	}
	return scr.Score(affRes, unRes, e.stat)
}

// gather fetches the touched packed columns into scr.PackedCols. Sites
// arrive strictly increasing, so shard indices are non-decreasing and
// each distinct shard is requested exactly once per call. The words
// were packed when the shard was materialized; gathering copies slice
// headers only.
func (e *Evaluator) gather(sites []int, scr *fitness.Scratch) error {
	if cap(scr.PackedCols) < len(sites) {
		scr.PackedCols = make([]genotype.PackedColumn, len(sites))
	}
	scr.PackedCols = scr.PackedCols[:len(sites)]
	var cur *Shard
	for i, s := range sites {
		si := e.src.Plan().ShardOf(s)
		if cur == nil || cur.Meta.Index != si {
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

// estimate runs the packed EM over one status group's mask.
func (e *Evaluator) estimate(mask genotype.PlaneMask, cols []genotype.PackedColumn, scr *ehdiall.Scratch) (*ehdiall.Result, error) {
	res, err := ehdiall.EstimatePacked(cols, mask, e.em, scr)
	if err != nil {
		if errors.Is(err, ehdiall.ErrNoData) {
			return nil, fitness.ErrEmptyGroup
		}
		return nil, err
	}
	return res, nil
}

var (
	_ fitness.Evaluator        = (*Evaluator)(nil)
	_ fitness.ScratchEvaluator = (*Evaluator)(nil)
)
