package user

import (
	"testing"

	"repro/tools/ldvet/testdata/src/deadexport/internal/testonly"
)

func TestHelper(t *testing.T) {
	if testonly.Helper() != 3 {
		t.Fatal("Helper")
	}
}
