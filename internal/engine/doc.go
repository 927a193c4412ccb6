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
// queue as one job. The caller keys the batch keyChunk items at a
// time; it queues the job at the first chunk with a leader and extends
// it with each later chunk's leaders, so the workers start on a large
// batch while the caller is still keying the rest. It stays one job
// per batch: once keyed, the batch parks until the job is done or its
// context is cancelled. Workers claim one item at a time under one
// short mutex, round-robin across every queued job, so concurrent
// batches interleave item by item and a large batch cannot starve a
// small one; a job whose queued items are all claimed leaves the queue
// until its batch extends it again. The worker that computes an item
// publishes it itself: the flight's outcome, then the key's cache slot
// (one critical section on the key's cache shard: the value replaces
// the flight, or on an error the slot is removed, so errors are never
// cached), and the wake-up of the batches following that key. A
// flight's wake-up signal is a channel made by its first follower, so
// a flight nobody follows costs none. A cancelled batch
// stops keying at the next chunk (the items not yet keyed report the
// context's error) and withdraws its unclaimed items, which resolve
// with the context's error; a claimed item checks the context before
// it is evaluated, and evaluations already running finish.
//
// # Key arena
//
// The batch path allocates per batch, not per candidate. Every
// distinct key is written once into one byte arena; duplicates are
// found by an open-addressing table over the arena. Each distinct key
// then takes one cache lookup, which reads the arena bytes and settles
// the key under its shard lock: a hit, a follower of the flight that
// is computing it, or a new key, which the batch leads. Cache hits are
// answered by the caller, never handed to a worker.
//
// # Cache table
//
// The memo cache and the in-flight state are one table per cache
// shard: power-of-two slots probed linearly from bits of the key's
// hash above the shard's, and an append-only byte arena holding the
// shard's keys. A slot is 24 bytes and holds no pointer: the key's
// hash tag, its offset and length in the arena, and one word that is
// the value's bits once published, or, while the key is computed, the
// index of its flight in the shard's small flight table. A lookup that
// leads inserts a pending slot and copies the key into the shard's
// arena, so a cache entry pins no batch's bytes and the collector
// scans neither slots nor arena. Growth rehashes from the stored tags
// without reading a key. A key whose flight ends in an error
// (cancellation, ErrEmptyGroup) is removed by backward-shift deletion,
// which leaves no tombstone; its bytes stay in the arena as dead bytes
// until they outweigh the live ones, when the shard rebuilds its arena.
// Report's CacheBytes counts the slot tables, arena capacity and
// flight tables.
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
