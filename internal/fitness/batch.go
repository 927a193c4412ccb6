package fitness

import (
	"context"
	"errors"
)

// ErrEvaluatorClosed is the terminal condition shared by every
// evaluation backend: the backend was closed and can never score
// again. Backends wrap it in their own ErrClosed so callers (the GA's
// whole-batch failure check, the facade's error mapping) can detect a
// dead backend with errors.Is without importing the backend package.
var ErrEvaluatorClosed = errors.New("fitness: evaluator closed")

// BatchEvaluator evaluates many haplotypes at once, possibly in
// parallel. Results are positional: Values[i] and Errs[i] belong to
// batch[i], and Errs[i] == nil means Values[i] is valid. This is the
// synchronous-generation contract of the paper's master/slave model:
// the call returns only when every item has been evaluated.
type BatchEvaluator interface {
	// EvaluateBatch scores every haplotype of batch and returns when
	// all are done; results are positional.
	EvaluateBatch(batch [][]int) (values []float64, errs []error)
}

// ContextBatchEvaluator is the cancellable batch contract. A cancelled
// batch still returns positional results, but stops dispatching new
// work promptly: items whose evaluation never started carry the
// context's error, items already in flight complete normally. Backends
// that implement it (the native engine and both master/slave pools)
// let a cancelled GA generation unblock within one in-flight
// evaluation per worker.
type ContextBatchEvaluator interface {
	// EvaluateBatchContext is EvaluateBatch that stops dispatching
	// once ctx is cancelled; unstarted items report ctx's error.
	EvaluateBatchContext(ctx context.Context, batch [][]int) (values []float64, errs []error)
}

// EvaluateAllContext evaluates a batch through ev: through its
// ContextBatchEvaluator fast path when available, otherwise serially,
// checking ctx between items (or once up front for a plain
// BatchEvaluator, whose batch is indivisible). Per-item failures are
// reported in errs without aborting the rest of the batch; items
// skipped because of cancellation report ctx's error positionally.
func EvaluateAllContext(ctx context.Context, ev Evaluator, batch [][]int) (values []float64, errs []error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cbe, ok := ev.(ContextBatchEvaluator); ok {
		return cbe.EvaluateBatchContext(ctx, batch)
	}
	if err := ctx.Err(); err != nil {
		values = make([]float64, len(batch))
		errs = make([]error, len(batch))
		for i := range errs {
			errs[i] = err
		}
		return values, errs
	}
	if be, ok := ev.(BatchEvaluator); ok {
		return be.EvaluateBatch(batch)
	}
	values = make([]float64, len(batch))
	errs = make([]error, len(batch))
	for i, sites := range batch {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			continue
		}
		values[i], errs[i] = ev.Evaluate(sites)
	}
	return values, errs
}

// Dedupe coalesces duplicate site sets of a batch. unique holds the
// first occurrence of each distinct set in batch order, and index maps
// every original position to its representative in unique, so callers
// can evaluate unique once and fan the results back out:
//
//	unique, index := fitness.Dedupe(batch)
//	values, errs := fitness.EvaluateAllContext(ctx, ev, unique)
//	// batch[i]'s result is values[index[i]], errs[index[i]].
//
// Site sets are compared positionally; callers should pass canonical
// (strictly increasing) sites, as the Evaluator contract requires.
func Dedupe(batch [][]int) (unique [][]int, index []int) {
	index = make([]int, len(batch))
	pos := make(map[string]int, len(batch))
	var key []byte
	for i, sites := range batch {
		key = AppendSiteKey(key[:0], sites)
		j, ok := pos[string(key)]
		if !ok {
			j = len(unique)
			unique = append(unique, sites)
			pos[string(key)] = j
		}
		index[i] = j
	}
	return unique, index
}
