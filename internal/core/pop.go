package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fitness"
	"repro/internal/rng"
)

// PopSpec shapes a Pop beyond its Config: which haplotype sizes it
// hosts, how large each subpopulation is, which random stream drives
// it, and whether it participates in cross-island migration. The zero
// value describes the synchronous GA's population: every size of the
// Config range, the Config's capacity split, a stream seeded from
// Config.Seed, and no migrant crossover.
type PopSpec struct {
	// Sizes are the haplotype sizes this population hosts, ascending,
	// each within the Config's [MinSize, MaxSize] range. Nil hosts the
	// full range. An island model partitions the range into one Sizes
	// group per island.
	Sizes []int
	// Capacities overrides the per-size subpopulation capacities. Nil
	// uses Config.Capacities(numSNPs) restricted to Sizes, so a
	// partitioned population keeps exactly the capacities the
	// synchronous GA would give those sizes.
	Capacities map[int]int
	// RNG is the population's random stream. Nil seeds a fresh stream
	// from Config.Seed — the synchronous GA's stream. Islands must pass
	// distinct streams or their trajectories collapse into clones.
	RNG *rng.RNG
	// Pairs overrides Config.PairsPerGeneration (0 keeps it). An
	// island model splits the global pair budget across islands in
	// proportion to their capacity share.
	Pairs int
	// MigrantCrossover keeps the inter-population crossover operator
	// enabled even when the population hosts a single size, so elites
	// received from other islands can serve as the cross-size parent.
	MigrantCrossover bool
	// Island is the 1-based island number stamped on every TraceEntry
	// this population emits (0 = synchronous mode, no stamp).
	Island int
}

// Pop is one adaptively evolving population: a group of per-size
// subpopulations with their operator controllers, counters and random
// stream. The synchronous GA runs a single Pop over every size; the
// island model runs one Pop per island over a partition of the sizes.
// A Pop is not safe for concurrent use — each island owns its Pop from
// a single goroutine — but distinct Pops may evolve concurrently over
// one shared evaluator.
type Pop struct {
	cfg     Config
	numSNPs int
	eval    fitness.Evaluator
	r       *rng.RNG

	sizes            []int
	minSize, maxSize int // local bounds of the hosted sizes
	pairs            int
	migrantCrossover bool
	island           int
	subs             map[int]*subpop

	mut *adaptiveController
	xov *adaptiveController

	evals       int64
	evalsAtBest map[int]int64
	generation  int
	stagnation  int
	riCounter   int
	immigrants  int64

	// evalErr latches a terminal evaluator failure (the backend was
	// closed under the run). Without it a dead backend would fail
	// every individual, freeze every subpopulation, and let the
	// stagnation rule report a bogus convergence.
	evalErr error
}

// NewPop builds a population over numSNPs markers scoring through
// eval, shaped by spec. cfg must already be normalized (see
// Config.Normalize) — New does that for the synchronous GA, the island
// model does it once for all its Pops.
func NewPop(eval fitness.Evaluator, numSNPs int, cfg Config, spec PopSpec) (*Pop, error) {
	if eval == nil {
		return nil, fmt.Errorf("core: nil evaluator")
	}
	sizes := spec.Sizes
	if sizes == nil {
		for s := cfg.MinSize; s <= cfg.MaxSize; s++ {
			sizes = append(sizes, s)
		}
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("core: population hosts no sizes")
	}
	for i, s := range sizes {
		if s < cfg.MinSize || s > cfg.MaxSize {
			return nil, fmt.Errorf("core: hosted size %d outside configured range [%d, %d]", s, cfg.MinSize, cfg.MaxSize)
		}
		if i > 0 && s <= sizes[i-1] {
			return nil, fmt.Errorf("core: hosted sizes must be strictly ascending")
		}
	}
	caps := spec.Capacities
	if caps == nil {
		caps = cfg.Capacities(numSNPs)
	}
	r := spec.RNG
	if r == nil {
		r = rng.New(cfg.Seed)
	}
	pairs := spec.Pairs
	if pairs == 0 {
		pairs = cfg.PairsPerGeneration
	}
	p := &Pop{
		cfg:              cfg,
		numSNPs:          numSNPs,
		eval:             eval,
		r:                r,
		sizes:            append([]int(nil), sizes...),
		minSize:          sizes[0],
		maxSize:          sizes[len(sizes)-1],
		pairs:            pairs,
		migrantCrossover: spec.MigrantCrossover,
		island:           spec.Island,
		subs:             make(map[int]*subpop),
		evalsAtBest:      make(map[int]int64),
	}
	for _, s := range p.sizes {
		c, ok := caps[s]
		if !ok || c < 2 {
			return nil, fmt.Errorf("core: no capacity for hosted size %d", s)
		}
		p.subs[s] = newSubpop(s, c)
	}
	p.mut = newAdaptiveController(int(numMutOps), cfg.GlobalMutationRate, cfg.MinOperatorRate, !cfg.DisableAdaptiveRates)
	if cfg.DisableSizeMutations {
		p.mut.disable(int(MutReduction))
		p.mut.disable(int(MutAugmentation))
	}
	p.xov = newAdaptiveController(int(numXOps), cfg.GlobalCrossoverRate, cfg.MinOperatorRate, !cfg.DisableAdaptiveRates)
	if cfg.DisableInterPopCrossover || (len(p.sizes) == 1 && !p.migrantCrossover) {
		p.xov.disable(int(XInter))
	}
	return p, nil
}

// feasible applies the optional constraint filter.
func (p *Pop) feasible(sites []int) bool {
	return p.cfg.Constraint == nil || p.cfg.Constraint(sites)
}

// evaluateBatch scores every unevaluated haplotype in cands through
// the evaluator, updating the run's evaluation counters. Identical
// SNP sets within the batch are submitted once and fanned back out,
// so the backend sees only distinct work; the evaluation counter
// still counts every score that was actually attempted — per
// requested haplotype, preserving the paper's cost metric — but not
// scores skipped by cancellation or a closed backend. Haplotypes
// whose evaluation fails stay unevaluated and are dropped by
// callers.
func (p *Pop) evaluateBatch(ctx context.Context, cands []*Haplotype) {
	var batch [][]int
	var idx []int
	for i, h := range cands {
		if h != nil && !h.Evaluated {
			batch = append(batch, h.Sites)
			idx = append(idx, i)
		}
	}
	if len(batch) == 0 {
		return
	}
	unique, index := fitness.Dedupe(batch)
	values, errs := fitness.EvaluateAllContext(ctx, p.eval, unique)
	for j, i := range idx {
		u := index[j]
		if errs[u] != nil {
			// Scores the backend never started — skipped by
			// cancellation or refused by a closed backend — are not
			// part of the paper's cost metric; evaluations that ran
			// and failed still count.
			switch {
			case errors.Is(errs[u], context.Canceled), errors.Is(errs[u], context.DeadlineExceeded):
			case errors.Is(errs[u], fitness.ErrEvaluatorClosed):
				if p.evalErr == nil {
					p.evalErr = errs[u]
				}
			default:
				p.evals++
			}
			continue
		}
		p.evals++
		cands[i].Fitness = values[u]
		cands[i].Evaluated = true
	}
}

// randomFeasible draws a random feasible size-k haplotype, or nil
// after maxTries failures.
func (p *Pop) randomFeasible(k, maxTries int) *Haplotype {
	for t := 0; t < maxTries; t++ {
		sites := randomSites(p.r, p.numSNPs, k)
		if p.feasible(sites) {
			return &Haplotype{Sites: sites}
		}
	}
	return nil
}

// Initialize fills every hosted subpopulation with random unique
// feasible individuals and evaluates them. It must be called exactly
// once, before the first Step.
func (p *Pop) Initialize(ctx context.Context) error {
	var pending []*Haplotype
	var targets []*subpop
	for _, s := range p.sizes {
		sp := p.subs[s]
		seen := make(map[string]struct{}, sp.capacity)
		tries := 0
		for len(seen) < sp.capacity && tries < 200*sp.capacity {
			tries++
			h := p.randomFeasible(s, 50)
			if h == nil {
				continue
			}
			var buf keyBuf
			key := h.appendKey(buf[:0])
			if _, dup := seen[string(key)]; dup {
				continue
			}
			seen[string(key)] = struct{}{}
			pending = append(pending, h)
			targets = append(targets, sp)
		}
	}
	p.evaluateBatch(ctx, pending)
	inserted := 0
	for i, h := range pending {
		if h.Evaluated && targets[i].insert(h) {
			inserted++
		}
	}
	if inserted == 0 {
		return fmt.Errorf("core: initialization produced no viable individual (constraint too strict or evaluator failing)")
	}
	for _, s := range p.sizes {
		if p.subs[s].best() != nil {
			p.evalsAtBest[s] = p.evals
		}
	}
	return nil
}

// lineage tracks one selection->crossover->mutation pipeline for
// progress accounting.
type lineage struct {
	xop      XOp  // crossover operator, valid when crossed
	crossed  bool // whether a crossover was applied
	p1, p2   *Haplotype
	child    *Haplotype
	mutOp    MutOp // mutation operator, valid when mutated
	mutated  bool
	probes   []*Haplotype // SNP-mutation probes or single size-mutant
	original *Haplotype   // the child before mutation
}

// pickSubpop chooses a non-empty subpopulation weighted by capacity.
func (p *Pop) pickSubpop(exclude int) *subpop {
	weights := make([]float64, len(p.sizes))
	total := 0.0
	for i, s := range p.sizes {
		if s == exclude || len(p.subs[s].members) == 0 {
			continue
		}
		weights[i] = float64(p.subs[s].capacity)
		total += weights[i]
	}
	if total == 0 {
		return nil
	}
	return p.subs[p.sizes[p.r.Choice(weights)]]
}

// LoopHooks lets a caller of RunLoop splice migration into the
// generation loop without perturbing the synchronous path: both hooks
// are optional and the zero value reproduces the synchronous GA's
// loop exactly.
type LoopHooks struct {
	// Immigrate, when non-nil, is called before every generation and
	// returns the current pool of migrant elites available as
	// cross-island crossover parents. The slice is read for the
	// duration of the Step only.
	Immigrate func() []*Haplotype
	// Emigrate, when non-nil, is called after every completed
	// generation (after the trace callback) with the generation
	// number, so an island can ship elites on its migration interval.
	Emigrate func(generation int)
}

// RunLoop executes the generation loop until convergence (the
// stagnation rule), the MaxGenerations cap, cancellation, or a
// terminal evaluator failure. It returns whether the run converged,
// how many generations completed, and the loop's terminal error (nil
// on natural termination; ctx's error on cancellation; the latched
// evaluator error when the backend died under the run — in which case
// converged is always false, because starved generations are not a
// real convergence). Initialize must have succeeded first.
func (p *Pop) RunLoop(ctx context.Context, hooks LoopHooks) (converged bool, completed int, err error) {
	// runErr records why the loop stopped; a cancellation that lands
	// after natural termination (convergence, generation cap) must not
	// relabel the completed run as interrupted, so the final return
	// does not re-read ctx.
	var runErr error
	for p.generation = 1; p.generation <= p.cfg.MaxGenerations; p.generation++ {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		var migrants []*Haplotype
		if hooks.Immigrate != nil {
			migrants = hooks.Immigrate()
		}
		improved := p.Step(ctx, migrants)
		if err := ctx.Err(); err != nil {
			// The generation was cut short mid-step: its insertions
			// stand (they are fully evaluated individuals), but it is
			// neither counted, traced, nor allowed to trip the
			// stagnation rule.
			runErr = err
			break
		}
		if p.evalErr != nil {
			// The backend died under the run; return the partial
			// result with the terminal error instead of letting the
			// stagnation rule declare a bogus convergence.
			return false, completed, p.evalErr
		}
		completed = p.generation
		if improved {
			p.stagnation = 0
			p.riCounter = 0
		} else {
			p.stagnation++
			p.riCounter++
		}
		injected := 0
		if !p.cfg.DisableRandomImmigrants && p.riCounter >= p.cfg.ImmigrantStagnation {
			injected = p.RandomImmigrants(ctx)
			p.riCounter = 0
		}
		if p.cfg.OnGeneration != nil {
			p.cfg.OnGeneration(p.Trace(injected))
		}
		if hooks.Emigrate != nil {
			hooks.Emigrate(p.generation)
		}
		if p.stagnation >= p.cfg.StagnationLimit {
			converged = true
			break
		}
	}
	// A terminal evaluator failure latched by the final iteration's
	// immigrant batch (or by the generation that tripped a stopping
	// rule) must not be swallowed: any starved iterations were not a
	// real convergence.
	if runErr == nil && p.evalErr != nil {
		return false, completed, p.evalErr
	}
	return converged, completed, runErr
}

// Snapshot assembles the population's Result after the given number of
// completed generations.
func (p *Pop) Snapshot(converged bool, generations int) *Result {
	res := &Result{
		BestBySize:       make(map[int]*Haplotype, len(p.sizes)),
		EvalsAtBest:      make(map[int]int64, len(p.sizes)),
		TotalEvaluations: p.evals,
		Generations:      generations,
		Converged:        converged,
		MutationRates:    p.mut.Rates(),
		CrossoverRates:   p.xov.Rates(),
		Immigrants:       p.immigrants,
	}
	for _, s := range p.sizes {
		if b := p.subs[s].best(); b != nil {
			res.BestBySize[s] = b.Clone()
			res.EvalsAtBest[s] = p.evalsAtBest[s]
		}
	}
	return res
}

// Step runs one generation and reports whether any subpopulation best
// improved. migrants, when non-empty, are evaluated elites from other
// islands offered as parents to the inter-population crossover; the
// synchronous GA always passes nil, and with a nil pool the step is
// bit-identical to the pre-island generation step.
func (p *Pop) Step(ctx context.Context, migrants []*Haplotype) bool {
	lineages := p.breed(migrants)

	// Phase A: evaluate crossover children (clones are pre-evaluated).
	var childBatch []*Haplotype
	for _, ln := range lineages {
		childBatch = append(childBatch, ln.child)
	}
	p.evaluateBatch(ctx, childBatch)

	// Crossover progress accounting (needs child fitnesses).
	p.recordCrossoverProgress(lineages)

	// Phase B: mutation candidates.
	p.planMutations(lineages)
	var probeBatch []*Haplotype
	for _, ln := range lineages {
		probeBatch = append(probeBatch, ln.probes...)
	}
	p.evaluateBatch(ctx, probeBatch)

	// Resolve mutations, record progress, gather final individuals.
	finals := p.resolveMutations(lineages)

	// Replacement with best-improvement tracking.
	improved := false
	for _, h := range finals {
		if h == nil || !h.Evaluated {
			continue
		}
		sp, ok := p.subs[h.Size()]
		if !ok {
			continue
		}
		if _, newBest := sp.insertTracked(h); newBest {
			p.evalsAtBest[sp.size] = p.evals
			improved = true
		}
	}

	p.mut.endGeneration()
	p.xov.endGeneration()
	return improved
}

// breed selects parents and applies (or skips) crossover for every
// pair of the generation. Inter-population crossover uses two local
// subpopulations when the population hosts several sizes; a
// single-size island instead crosses a local parent with a migrant
// elite (a multi-size island flips a coin between the two sources).
// Without a partner — single size, empty migrant pool — the pick
// degrades to cloning, like a skipped crossover.
func (p *Pop) breed(migrants []*Haplotype) []*lineage {
	var out []*lineage
	for n := 0; n < p.pairs; n++ {
		op := p.xov.pick(p.r.Float64())
		switch {
		case op == int(XIntra):
			sp := p.pickSubpop(-1)
			if sp == nil {
				continue
			}
			p1 := sp.tournament(p.r, p.cfg.TournamentSize)
			p2 := sp.tournament(p.r, p.cfg.TournamentSize)
			c1, c2 := crossoverUniform(p.r, p1.Sites, p2.Sites, p.numSNPs)
			for _, cs := range [][]int{c1, c2} {
				if !p.feasible(cs) {
					continue
				}
				out = append(out, &lineage{
					xop: XIntra, crossed: true, p1: p1, p2: p2,
					child: &Haplotype{Sites: cs},
				})
			}
		case op == int(XInter) && (len(p.sizes) > 1 || (p.migrantCrossover && len(migrants) > 0)):
			if p.migrantCrossover && len(migrants) > 0 && (len(p.sizes) == 1 || p.r.Bool(0.5)) {
				// Cross-island crossover: a migrant elite is the
				// second parent. Only children of hosted sizes become
				// lineages — the migrant-size child could never enter
				// a subpopulation here, so evaluating it (and its
				// mutation probes) would be pure waste.
				spA := p.pickSubpop(-1)
				if spA == nil {
					continue
				}
				p1 := spA.tournament(p.r, p.cfg.TournamentSize)
				p2 := migrants[p.r.Intn(len(migrants))]
				c1, c2 := crossoverUniform(p.r, p1.Sites, p2.Sites, p.numSNPs)
				for _, cs := range [][]int{c1, c2} {
					if _, hosted := p.subs[len(cs)]; !hosted || !p.feasible(cs) {
						continue
					}
					out = append(out, &lineage{
						xop: XInter, crossed: true, p1: p1, p2: p2,
						child: &Haplotype{Sites: cs},
					})
				}
				continue
			}
			spA := p.pickSubpop(-1)
			if spA == nil {
				continue
			}
			spB := p.pickSubpop(spA.size)
			if spB == nil {
				continue
			}
			p1 := spA.tournament(p.r, p.cfg.TournamentSize)
			p2 := spB.tournament(p.r, p.cfg.TournamentSize)
			c1, c2 := crossoverUniform(p.r, p1.Sites, p2.Sites, p.numSNPs)
			for _, cs := range [][]int{c1, c2} {
				if !p.feasible(cs) {
					continue
				}
				out = append(out, &lineage{
					xop: XInter, crossed: true, p1: p1, p2: p2,
					child: &Haplotype{Sites: cs},
				})
			}
		default:
			// No crossover: two clones proceed to mutation.
			for i := 0; i < 2; i++ {
				sp := p.pickSubpop(-1)
				if sp == nil {
					continue
				}
				parent := sp.tournament(p.r, p.cfg.TournamentSize)
				out = append(out, &lineage{p1: parent, child: parent.Clone()})
			}
		}
	}
	return out
}

// recordCrossoverProgress implements §4.3.2: intra-population progress
// compares the mean normalized fitness of children and parents;
// inter-population progress compares each child to its same-size
// parent. A cross-island child whose size is not hosted here records
// zero progress (there is no local reference scale for it).
func (p *Pop) recordCrossoverProgress(lineages []*lineage) {
	// Group the two children of one crossover application? Each
	// lineage carries one child; progress is recorded per child with
	// the parent mean as baseline, which averages to the same profit.
	for _, ln := range lineages {
		if !ln.crossed || !ln.child.Evaluated {
			continue
		}
		switch ln.xop {
		case XIntra:
			sp := p.subs[ln.child.Size()]
			if sp == nil {
				continue
			}
			parentMean := (sp.normalized(ln.p1.Fitness) + sp.normalized(ln.p2.Fitness)) / 2
			p.xov.record(int(XIntra), sp.normalized(ln.child.Fitness)-parentMean)
		case XInter:
			// Find the parent whose size matches the child.
			var ref *Haplotype
			if ln.p1.Size() == ln.child.Size() {
				ref = ln.p1
			} else if ln.p2.Size() == ln.child.Size() {
				ref = ln.p2
			}
			sp := p.subs[ln.child.Size()]
			if ref == nil || sp == nil {
				p.xov.record(int(XInter), 0)
				continue
			}
			p.xov.record(int(XInter), sp.normalized(ln.child.Fitness)-sp.normalized(ref.Fitness))
		}
	}
}

// planMutations decides, for every evaluated child, whether and how it
// mutates, and builds the probe candidates to evaluate. The size
// boundaries are the population's local ones: an island hosting a
// slice of the size range degrades reduction/augmentation to the SNP
// mutation at its own edges, exactly as the synchronous GA does at the
// configured range's edges.
func (p *Pop) planMutations(lineages []*lineage) {
	for _, ln := range lineages {
		if !ln.child.Evaluated {
			continue
		}
		op := p.mut.pick(p.r.Float64())
		if op < 0 {
			continue
		}
		mop := MutOp(op)
		size := ln.child.Size()
		// Boundary fallbacks: reduction at the smallest hosted size
		// and augmentation at the largest degrade to the SNP mutation
		// (size must stay within the hosted range).
		if mop == MutReduction && size <= p.minSize {
			mop = MutSNP
		}
		if mop == MutAugmentation && size >= p.maxSize {
			mop = MutSNP
		}
		ln.mutOp = mop
		ln.mutated = true
		ln.original = ln.child
		switch mop {
		case MutSNP:
			for i := 0; i < p.cfg.SNPMutationProbes; i++ {
				sites := mutateSNPOnce(p.r, ln.child.Sites, p.numSNPs)
				if p.feasible(sites) {
					ln.probes = append(ln.probes, &Haplotype{Sites: sites})
				}
			}
		case MutReduction:
			sites := mutateReduction(p.r, ln.child.Sites)
			if p.feasible(sites) {
				ln.probes = append(ln.probes, &Haplotype{Sites: sites})
			}
		case MutAugmentation:
			sites := mutateAugmentation(p.r, ln.child.Sites, p.numSNPs)
			if p.feasible(sites) {
				ln.probes = append(ln.probes, &Haplotype{Sites: sites})
			}
		}
		if len(ln.probes) == 0 {
			ln.mutated = false // all candidates infeasible
		}
	}
}

// resolveMutations picks each lineage's final individual, records
// mutation progress (§4.3.1), and returns the individuals to insert.
func (p *Pop) resolveMutations(lineages []*lineage) []*Haplotype {
	finals := make([]*Haplotype, 0, len(lineages))
	for _, ln := range lineages {
		if !ln.child.Evaluated {
			continue
		}
		if !ln.mutated {
			finals = append(finals, ln.child)
			continue
		}
		var bestProbe *Haplotype
		for _, pr := range ln.probes {
			if !pr.Evaluated {
				continue
			}
			if bestProbe == nil || pr.Fitness > bestProbe.Fitness {
				bestProbe = pr
			}
		}
		if bestProbe == nil {
			finals = append(finals, ln.child)
			continue
		}
		// Normalized progress across (possibly different) sizes.
		spOrig := p.subs[ln.original.Size()]
		spMut := p.subs[bestProbe.Size()]
		if spOrig != nil && spMut != nil {
			p.mut.record(int(ln.mutOp),
				spMut.normalized(bestProbe.Fitness)-spOrig.normalized(ln.original.Fitness))
		}
		// The mutated individual replaces the child; the child also
		// remains a candidate (it was evaluated and may beat the
		// subpopulation worst) when the mutation changed its size.
		finals = append(finals, bestProbe)
		if bestProbe.Size() != ln.child.Size() {
			finals = append(finals, ln.child)
		}
	}
	return finals
}

// RandomImmigrants replaces every member scoring below its
// subpopulation mean with fresh random individuals (§4.4). It returns
// the number of immigrants actually inserted. RunLoop calls it on the
// Config's stagnation trigger; it is exported for tests and for
// callers composing their own loop.
func (p *Pop) RandomImmigrants(ctx context.Context) int {
	injected := 0
	var pending []*Haplotype
	var targets []*subpop
	for _, s := range p.sizes {
		sp := p.subs[s]
		doomed := sp.belowMean()
		for _, h := range doomed {
			sp.remove(h)
		}
		for i := 0; i < len(doomed); i++ {
			h := p.randomFeasible(s, 50)
			if h == nil {
				continue
			}
			if sp.contains(h) {
				continue
			}
			pending = append(pending, h)
			targets = append(targets, sp)
		}
	}
	p.evaluateBatch(ctx, pending)
	for i, h := range pending {
		if !h.Evaluated {
			continue
		}
		sp := targets[i]
		inserted, newBest := sp.insertTracked(h)
		if inserted {
			injected++
		}
		if newBest {
			p.evalsAtBest[sp.size] = p.evals
		}
	}
	p.immigrants += int64(injected)
	return injected
}

// Trace snapshots the population's current state as a TraceEntry,
// stamped with the spec's island number.
func (p *Pop) Trace(immigrants int) TraceEntry {
	best := make(map[int]float64, len(p.sizes))
	for _, s := range p.sizes {
		if b := p.subs[s].best(); b != nil {
			best[s] = b.Fitness
		}
	}
	return TraceEntry{
		Generation:     p.generation,
		Evaluations:    p.evals,
		BestBySize:     best,
		MutationRates:  p.mut.Rates(),
		CrossoverRates: p.xov.Rates(),
		Stagnation:     p.stagnation,
		Immigrants:     immigrants,
		Island:         p.island,
	}
}

// Elites returns clones of the top n members of every hosted
// subpopulation (fewer when a subpopulation holds fewer), ordered by
// size then rank. The clones are safe to hand to another island: they
// share no mutable state with this population.
func (p *Pop) Elites(n int) []*Haplotype {
	var out []*Haplotype
	for _, s := range p.sizes {
		m := p.subs[s].members
		for i := 0; i < n && i < len(m); i++ {
			out = append(out, m[i].Clone())
		}
	}
	return out
}

// Sizes returns a copy of the hosted haplotype sizes, ascending.
func (p *Pop) Sizes() []int { return append([]int(nil), p.sizes...) }

// EvalErr returns the latched terminal evaluator failure, if any.
func (p *Pop) EvalErr() error { return p.evalErr }
