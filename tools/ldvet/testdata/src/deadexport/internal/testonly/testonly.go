// Package testonly is imported only by a _test.go file: a test-support
// package, whose exports are exempt.
package testonly

// Helper is called only from tests.
func Helper() int { return 3 }
