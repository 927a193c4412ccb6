// Package deadexport is the public face of the deadexport fixture: it
// re-exports lib.Thing by alias, which makes Thing's methods public
// API.
package deadexport

import "repro/tools/ldvet/testdata/src/deadexport/internal/lib"

// Thing is the re-exported internal type.
type Thing = lib.Thing
