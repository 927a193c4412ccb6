package fitness

import (
	"context"
	"fmt"
	"testing"
)

func TestEvaluateAllSerialFallback(t *testing.T) {
	ev := Func(func(sites []int) (float64, error) {
		if sites[0] == 9 {
			return 0, fmt.Errorf("boom")
		}
		return float64(sites[0]), nil
	})
	batch := [][]int{{1}, {9}, {3}}
	values, errs := EvaluateAllContext(context.Background(), ev, batch)
	if errs[0] != nil || errs[2] != nil || errs[1] == nil {
		t.Fatalf("errs = %v", errs)
	}
	if values[0] != 1 || values[2] != 3 {
		t.Fatalf("values = %v", values)
	}
}

func TestDedupe(t *testing.T) {
	batch := [][]int{{1, 2}, {258}, {1, 2}, {0, 1, 2}, {258}, {1, 2}}
	unique, index := Dedupe(batch)
	if fmt.Sprint(unique) != "[[1 2] [258] [0 1 2]]" || fmt.Sprint(index) != "[0 1 0 2 1 0]" {
		t.Fatalf("Dedupe = %v, %v", unique, index)
	}
}

// TestDedupeAllocsPerDistinct: Dedupe looks every candidate up
// through one reused key buffer and copies only a distinct set's key,
// so a batch 16 times as long over the same sets allocates about the
// same.
func TestDedupeAllocsPerDistinct(t *testing.T) {
	batchOf := func(n int) [][]int {
		batch := make([][]int, n)
		for i := range batch {
			batch[i] = []int{i % 4, 10 + i%4, 20 + i%4}
		}
		return batch
	}
	allocs := func(batch [][]int) float64 {
		return testing.AllocsPerRun(20, func() { Dedupe(batch) })
	}
	short, long := allocs(batchOf(16)), allocs(batchOf(256))
	if long-short > 2 {
		t.Fatalf("Dedupe of 256 candidates over 4 sets made %v allocations, of 16 candidates %v", long, short)
	}
}
