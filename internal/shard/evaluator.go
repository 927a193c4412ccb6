package shard

import (
	"fmt"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/fitness"
	"repro/internal/genotype"
)

// Evaluator is a fitness.Pipeline with a shard gather: it fetches the
// few packed columns a candidate SNP subset touches from its Source
// and hands them to the pipeline's EH-DIALL → concatenation → CLUMP
// body, so its values and Details are the monolithic pipeline's, bit
// for bit, while its working set is the touched shards, not the table.
//
// It also implements engine.KeyFingerprinter: wrapped in an engine,
// its memo-cache keys carry the fingerprints of the touched shards
// (fingerprint+range) instead of the flat dataset fingerprint, so
// cache entries are grouped by the shards that produce them. Safe for
// concurrent use.
type Evaluator struct {
	*fitness.Pipeline
	src  Source
	plan Plan // src.Plan(), read once at construction
}

// NewEvaluator builds the shard-aware evaluator for the dataset served
// by src. The row partition (affected/unaffected) comes from the
// dataset, exactly as fitness.NewPipeline derives it; Unknown-status
// individuals are ignored. src's plan must describe d: its parent
// fingerprint is checked against d's, except for a source this
// package built from d itself, whose plan was made from d's.
func NewEvaluator(src Source, d *genotype.Dataset, stat clump.Statistic, em ehdiall.Config) (*Evaluator, error) {
	if src == nil || d == nil {
		return nil, fmt.Errorf("shard: nil source or dataset")
	}
	plan := src.Plan()
	own, _ := src.(interface{ dataset() *genotype.Dataset })
	if plan.NumSNPs != d.NumSNPs() || plan.Rows != d.NumIndividuals() ||
		(own == nil || own.dataset() != d) && plan.Parent != d.Fingerprint() {
		return nil, fmt.Errorf("shard: source plan does not describe this dataset")
	}
	e := &Evaluator{src: src, plan: plan}
	p, err := fitness.NewGatherPipeline(d, stat, em, e.gather)
	if err != nil {
		return nil, err
	}
	e.Pipeline = p
	return e, nil
}

// KeyFingerprint derives the memo-cache fingerprint of one canonical
// site set: an FNV-1a digest of the fingerprints of the shards the
// sites touch, in order. Site sets confined to the same shards share a
// fingerprint (the site indices themselves are the rest of the cache
// key), sets touching different shards never collide on it, and the
// value is stable across runs and processes — restored caches stay
// valid. Implements engine.KeyFingerprinter.
func (e *Evaluator) KeyFingerprint(sites []int) uint64 {
	plan := &e.plan
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

// gather fetches the touched packed columns into cols. Sites arrive
// checked and strictly increasing, so shard indices are non-decreasing
// and each distinct shard is requested exactly once per call. The
// words were packed when the shard was materialized; gathering copies
// slice headers only.
func (e *Evaluator) gather(sites []int, cols []genotype.PackedColumn) error {
	var cur *Shard
	for i, s := range sites {
		if si := e.plan.ShardOf(s); cur == nil || cur.Meta.Index != si {
			sh, err := e.src.Shard(si)
			if err != nil {
				return err
			}
			cur = sh
		}
		cols[i] = cur.PackedColumn(s)
	}
	return nil
}

var _ fitness.ScratchEvaluator = (*Evaluator)(nil)
