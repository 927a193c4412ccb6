// Package user references lib from another unit.
package user

import (
	"context"

	"repro/tools/ldvet/testdata/src/deadexport/internal/lib"
)

// Total reads lib's live exports; its context makes context.Context
// (and its Done method) an interface the loaded code mentions.
func Total(ctx context.Context) float64 {
	var a lib.Areaer = lib.Shape{}
	_ = ctx
	return a.Area() + float64(lib.Used())
}
