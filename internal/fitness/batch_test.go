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
