// Package shard partitions a genotype dataset's SNP columns into
// fixed-size shards and evaluates haplotypes over them — the layer
// between storage and evaluation that lets a table grow past 10^5
// markers without residing fully in memory.
//
// A Plan is pure arithmetic: it cuts the column space [0, NumSNPs)
// into ranges of ShardSize columns and gives each range a fingerprint
// derived from the parent dataset fingerprint (genotype
// .RangeFingerprint), so a shard has a stable identity across runs and
// processes. A Source materializes shards on demand — from the
// in-memory table (NewMem) or from a write-once spill directory
// (NewSpill) — behind a bounded set of hot shards: a resident shard is
// served by one atomic load, without a lock, and a miss evicts by
// CLOCK (second chance). The Evaluator is a fitness.Pipeline whose
// gather step reads only the shards a candidate SNP subset touches, so
// its values are bit-identical to the monolithic path; its
// KeyFingerprint method keys the engine's memo cache by the
// fingerprints of the touched shards. RunSweep scans every haplotype
// window shard by shard, checkpointing completed shards through a Sink
// so an interrupted scan resumes instead of restarting.
package shard

import (
	"fmt"

	"repro/internal/genotype"
)

// DefaultShardSize is the column count per shard when a caller passes
// 0: big enough that per-shard overhead vanishes, small enough that a
// handful of hot shards fit comfortably in memory for biobank-scale
// row counts.
const DefaultShardSize = 4096

// Meta identifies one shard of a plan.
type Meta struct {
	// Index is the shard's position in the plan.
	Index int
	// Start and End bound the shard's SNP columns: [Start, End).
	Start, End int
	// Fingerprint is the shard's identity, derived from the parent
	// dataset fingerprint and the column range (see
	// genotype.RangeFingerprint).
	Fingerprint uint64
}

// Width returns the shard's column count.
func (m Meta) Width() int { return m.End - m.Start }

// Plan is the pure partitioning of a dataset's column space into
// shards. It carries no genotype data; Sources and Evaluators share
// one plan, and a restored process recomputes the identical plan from
// the same dataset and shard size.
type Plan struct {
	// Parent is the dataset fingerprint all shard fingerprints derive
	// from.
	Parent uint64
	// NumSNPs and Rows are the dataset dimensions.
	NumSNPs, Rows int
	// ShardSize is the column count per shard (the last shard may be
	// narrower).
	ShardSize int
	// Metas describes every shard in index order.
	Metas []Meta
}

// NewPlan cuts [0, numSNPs) into shards of shardSize columns (0 =
// DefaultShardSize) over a dataset with the given fingerprint and row
// count.
func NewPlan(parent uint64, numSNPs, rows, shardSize int) (Plan, error) {
	if numSNPs < 1 {
		return Plan{}, fmt.Errorf("shard: need at least 1 SNP, have %d", numSNPs)
	}
	if rows < 1 {
		return Plan{}, fmt.Errorf("shard: need at least 1 individual, have %d", rows)
	}
	if shardSize < 0 {
		return Plan{}, fmt.Errorf("shard: negative shard size %d", shardSize)
	}
	if shardSize == 0 {
		shardSize = DefaultShardSize
	}
	p := Plan{Parent: parent, NumSNPs: numSNPs, Rows: rows, ShardSize: shardSize}
	for start := 0; start < numSNPs; start += shardSize {
		end := start + shardSize
		if end > numSNPs {
			end = numSNPs
		}
		p.Metas = append(p.Metas, Meta{
			Index:       len(p.Metas),
			Start:       start,
			End:         end,
			Fingerprint: genotype.RangeFingerprint(parent, start, end),
		})
	}
	return p, nil
}

// PlanFor builds the plan of a dataset (0 = DefaultShardSize).
func PlanFor(d *genotype.Dataset, shardSize int) (Plan, error) {
	if d == nil {
		return Plan{}, fmt.Errorf("shard: nil dataset")
	}
	return NewPlan(d.Fingerprint(), d.NumSNPs(), d.NumIndividuals(), shardSize)
}

// NumShards returns the shard count.
func (p Plan) NumShards() int { return len(p.Metas) }

// ShardOf returns the index of the shard containing column site.
func (p Plan) ShardOf(site int) int { return site / p.ShardSize }

// Equal reports whether two plans describe the same partitioning of
// the same dataset.
func (p Plan) Equal(q Plan) bool {
	return p.Parent == q.Parent && p.NumSNPs == q.NumSNPs &&
		p.Rows == q.Rows && p.ShardSize == q.ShardSize
}

// Shard is one materialized shard: an immutable column-major slice of
// the dataset in the 2-bit representation. Safe for concurrent
// readers.
type Shard struct {
	// Meta identifies the shard.
	Meta Meta
	// Packed holds the genotype columns: Packed[i] is global column
	// Meta.Start+i, one 2-bit code per individual in dataset row
	// order. The words are packed once, from the table, when the shard
	// is first materialized; a spill file holds those same words, so
	// a re-read decodes them and the kernel gathers words and never
	// repacks.
	Packed []genotype.PackedColumn
}

// PackedColumn returns global column site, which must lie in
// [Meta.Start, Meta.End).
func (s *Shard) PackedColumn(site int) genotype.PackedColumn {
	return s.Packed[site-s.Meta.Start]
}

// buildShard packs shard m straight from the row-major dataset, a
// row-block transpose (genotype.PackRange) rather than one strided
// column gather per SNP.
func buildShard(d *genotype.Dataset, m Meta) *Shard {
	return &Shard{Meta: m, Packed: genotype.PackRange(d, m.Start, m.End)}
}
