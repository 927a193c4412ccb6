package fitness

import (
	"fmt"

	"repro/internal/clump"
	"repro/internal/ehdiall"
	"repro/internal/genotype"
)

// ScratchEvaluator is implemented by evaluators whose hot path can run
// against caller-held scratch buffers — the Pipeline, and so the
// shard-aware evaluator built on it. The engine gives each worker
// goroutine one Scratch and routes every job through EvaluateScratch,
// making the steady-state batch path allocation-free per candidate.
type ScratchEvaluator interface {
	Evaluator
	// EvaluateScratch is Evaluate using scr's buffers. scr must not
	// be shared between concurrent calls.
	EvaluateScratch(sites []int, scr *Scratch) (float64, error)
}

// Scratch holds one evaluation worker's reusable buffers across the
// whole Figure 3 pipeline: per-group EH-DIALL estimation scratch, the
// gathered column views, the two rows of the concatenated contingency
// table and the CLUMP scratch. A zero Scratch (or NewScratch) is ready to use;
// buffers grow on demand and are retained, so repeated evaluations of
// same-sized haplotypes allocate nothing. A Scratch must not be shared
// between concurrent evaluations.
type Scratch struct {
	// Aff and Un are the per-status-group estimation scratches. They
	// are distinct because the affected Result must survive the
	// unaffected estimation (a Result produced with a scratch aliases
	// its storage).
	Aff, Un ehdiall.Scratch

	// PackedCols is the packed-kernel gather buffer: the selected
	// packed columns, one per site.
	PackedCols []genotype.PackedColumn

	expAff, expUn []float64
	cs            clump.Scratch
}

// NewScratch returns an empty Scratch ready for use.
func NewScratch() *Scratch { return &Scratch{} }

// Score runs the shared tail of the Figure 3 pipeline on scr's
// buffers: the two per-group EH-DIALL estimations' expected counts
// are rows 0 and 1 of the 2 x 2^k contingency table, which CLUMP
// scores in place, and the selected statistic is returned.
// It is the tail of Pipeline.EvaluateScratch, whatever the column
// source.
func (s *Scratch) Score(aff, un *ehdiall.Result, stat clump.Statistic) (float64, error) {
	if aff.K != un.K {
		return 0, fmt.Errorf("fitness: group estimations disagree on k: %d vs %d", aff.K, un.K)
	}
	s.expAff = aff.ExpectedCountsInto(s.expAff)
	s.expUn = un.ExpectedCountsInto(s.expUn)
	cres, err := clump.StatisticsScratch(s.expAff, s.expUn, &s.cs)
	if err != nil {
		return 0, err
	}
	return cres.Get(stat), nil
}
