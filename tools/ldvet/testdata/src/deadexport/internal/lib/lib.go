// Package lib declares the exports the deadexport fixture checks.
package lib

// Dead is referenced by nothing.
func Dead() {} // want "exported func lib.Dead"

// Recur only calls itself, which does not keep it alive.
func Recur(n int) int { // want "exported func lib.Recur"
	if n == 0 {
		return 0
	}
	return Recur(n - 1)
}

// DeadConst is referenced by nothing.
const DeadConst = 1 // want "exported const lib.DeadConst"

// UsedVar is read by package user.
var UsedVar = 2

// Used is called by package user.
func Used() int { return helper() }

// helper is unexported and never checked.
func helper() int { return UsedVar }

// Unused is an exported type nothing names.
type Unused struct{} // want "exported type lib.Unused"

// Thing is re-exported by the root package's alias.
type Thing struct{}

// Public is public API through the alias, though nothing calls it.
func (Thing) Public() {}

// Areaer is the interface Shape implements.
type Areaer interface{ Area() float64 }

// Shape is used by package user through Areaer.
type Shape struct{}

// Area implements Areaer: called only dynamically, and exempt.
func (Shape) Area() float64 { return 1 }

// String implements fmt.Stringer, one of the interfaces the standard
// library calls implicitly: exempt.
func (Shape) String() string { return "shape" }

// Done has context.Context's Done signature, but Shape implements no
// interface listing it, so it is dead.
func (Shape) Done() <-chan struct{} { return nil } // want "exported method lib.Shape.Done"

// Allowed is dead but carries a written-down reason.
//
//ldvet:allow deadexport: fixture of an annotated exception
func Allowed() {}
