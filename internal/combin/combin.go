// Package combin provides exact and floating-point combinatorics and
// k-subset iteration. It backs Table 1 of the paper (search-space
// sizes, which overflow int64 already at C(249,6)-scale problems when
// summed over sizes) and the exhaustive landscape enumerator of §3.
package combin

import (
	"math"
	"math/big"
)

// Binomial returns C(n, k) exactly. It returns 0 for k < 0 or k > n,
// and panics for n < 0.
func Binomial(n, k int) *big.Int {
	if n < 0 {
		panic("combin: Binomial requires n >= 0")
	}
	if k < 0 || k > n {
		return big.NewInt(0)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}

// LogBinomial returns ln C(n, k). It returns -Inf when C(n,k) = 0.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	if k == 0 || k == n {
		return 0
	}
	ln := func(x int) float64 {
		v, _ := math.Lgamma(float64(x) + 1)
		return v
	}
	return ln(n) - ln(k) - ln(n-k)
}

// FirstSubset fills dst (length k) with the lexicographically first
// k-subset of [0, n): {0, 1, ..., k-1}. It returns false when no
// k-subset of [0,n) exists.
func FirstSubset(dst []int, n int) bool {
	k := len(dst)
	if k > n {
		return false
	}
	for i := range dst {
		dst[i] = i
	}
	return true
}

// NextSubset advances s (a sorted k-subset of [0, n)) to its
// lexicographic successor in place, returning false when s was the
// last subset. The empty subset has no successor.
func NextSubset(s []int, n int) bool {
	k := len(s)
	if k == 0 {
		return false
	}
	i := k - 1
	for i >= 0 && s[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	s[i]++
	for j := i + 1; j < k; j++ {
		s[j] = s[j-1] + 1
	}
	return true
}

// Unrank fills dst with the sorted k-subset of [0, n) having the given
// lexicographic rank, where k = len(dst). It panics if rank is out of
// range.
func Unrank(rank *big.Int, dst []int, n int) {
	k := len(dst)
	r := new(big.Int).Set(rank)
	x := 0
	for i := 0; i < k; i++ {
		for {
			c := Binomial(n-x-1, k-i-1)
			if r.Cmp(c) < 0 {
				dst[i] = x
				x++
				break
			}
			r.Sub(r, c)
			x++
			if x > n {
				panic("combin: Unrank rank out of range")
			}
		}
	}
}

// ForEachSubset invokes fn for every sorted k-subset of [0, n) in
// lexicographic order. The slice passed to fn is reused between calls;
// fn must copy it if it needs to retain it. Returning false from fn
// stops the iteration early.
func ForEachSubset(n, k int, fn func(s []int) bool) {
	s := make([]int, k)
	if !FirstSubset(s, n) {
		return
	}
	if k == 0 {
		fn(s)
		return
	}
	for {
		if !fn(s) {
			return
		}
		if !NextSubset(s, n) {
			return
		}
	}
}
