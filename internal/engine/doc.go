// Package engine is the native concurrent evaluation engine: the
// production-speed counterpart of the paper-fidelity PVM simulation in
// packages master and pvm.
//
// The paper obtains its speedups from a synchronous master/slave
// fitness evaluation (§4.5); this package keeps that contract — a
// batch call returns only when the whole generation is scored — but
// drops the 2004 messaging model. Haplotypes are evaluated by a pool
// of plain goroutine workers over the shared EH-DIALL -> CLUMP
// pipeline, and every score is memoized in a sharded, concurrency-safe
// cache, because the multipopulation GA re-evaluates the same 2-6-SNP
// sets across generations, subpopulations and repeated experiment
// runs (the same observation that drives STPGA's memoized fitness and
// PLINK 2's aggressive reuse of intermediate statistics).
//
// A batch is served in one pass: in-batch duplicates are coalesced,
// cached sets are answered immediately, sets a concurrent batch is
// already computing are joined in flight (singleflight: the follower
// waits for that computation instead of repeating it), and only the
// genuinely novel sets reach the workers. Each distinct haplotype is
// therefore computed at most once per engine, across every batch that
// shares it.
//
// # Run queue
//
// The novel sets of a batch (its leader misses) go on the engine's run
// queue as one job, and the batch parks until the job is done or its
// context is cancelled. Workers claim one item at a time under one
// short mutex, round-robin across every queued job, so concurrent
// batches interleave item by item and a large batch cannot starve a
// small one. The worker that computes an item publishes it itself:
// the cache entry, the flight's outcome, the flight's removal from the
// in-flight table, and the wake-up of the batches following that key.
// A cancelled batch withdraws its unclaimed items, which resolve with
// the context's error; a claimed item checks the context before it is
// evaluated, and evaluations already running finish.
//
// # Cache-key canonicalization
//
// A cache key is the 8-byte big-endian dataset fingerprint
// (genotype.Dataset.Fingerprint) followed by the haplotype's site
// indices, each 4 bytes big-endian, sorted ascending with duplicates
// removed. Two site slices that differ only in order or repetition
// share a key — and are evaluated in that canonical form, which is
// also the form the Evaluator contract requires. The fingerprint
// prefix keeps scores from different datasets apart even if a cache
// were ever shared. An inner evaluator that implements
// KeyFingerprinter (the shard evaluator) supplies that prefix per site
// set instead of the flat dataset fingerprint.
//
// The engine implements fitness.Evaluator, fitness.BatchEvaluator and
// fitness.Reporter, so the GA in internal/core and the experiment
// harness in internal/exp can swap it with the master/PVM backends
// behind the same seam.
package engine
