package engine

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkEngineColdBatch measures what the engine itself costs per
// cold candidate: batches of 4,096 pairs the engine has never seen,
// scored by a trivial inner evaluator, so the time and allocations are
// keying, dedupe, cache and in-flight bookkeeping, dispatch and
// publish. A fresh engine serves every 8 batches, about the 30,000
// windows of one sweep pass, so the cache stays at a sweep's size.
// It reports ns/item and allocs/item (every goroutine's allocations,
// the workers' included).
func BenchmarkEngineColdBatch(b *testing.B) {
	const size, batchesPerEngine = 4096, 8
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			flat := make([]int, 2*size)
			batch := make([][]int, size)
			for i := range batch {
				batch[i] = flat[2*i : 2*i+2]
			}
			var e *Engine
			defer func() {
				if e != nil {
					e.Close()
				}
			}()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				if n%batchesPerEngine == 0 {
					if e != nil {
						e.Close()
					}
					var err error
					if e, err = New(&countingEval{}, Options{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
				base := (n % batchesPerEngine) * size
				for i := range batch {
					batch[i][0], batch[i][1] = base+i, base+i+1
				}
				b.StartTimer()
				_, errs := e.EvaluateBatch(batch)
				if errs[0] != nil {
					b.Fatal(errs[0])
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			items := float64(b.N) * size
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/items, "ns/item")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/items, "allocs/item")
		})
	}
}

// BenchmarkEngineWarmBatch measures what the engine costs per cached
// candidate: the same batch of distinct pairs scored again and again,
// so every item is a cache hit answered by the caller (keying, dedupe
// and one cache lookup) and no worker runs. GA and serve traffic is
// mostly hits. It reports ns/item and allocs/item.
func BenchmarkEngineWarmBatch(b *testing.B) {
	for _, size := range []int{64, 4096} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			batch := make([][]int, size)
			for i := range batch {
				batch[i] = []int{i, i + 1}
			}
			e, err := New(&countingEval{}, Options{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			if _, errs := e.EvaluateBatch(batch); errs[0] != nil {
				b.Fatal(errs[0])
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if _, errs := e.EvaluateBatch(batch); errs[0] != nil {
					b.Fatal(errs[0])
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if r := e.Report(); r.Computed != int64(size) {
				b.Fatalf("computed %d sets, want %d: the timed batches must be pure hits", r.Computed, size)
			}
			items := float64(b.N) * float64(size)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/items, "ns/item")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/items, "allocs/item")
		})
	}
}
