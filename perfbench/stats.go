package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// samples is a concurrency-safe list of durations from one kind of
// operation.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) sorted() []time.Duration {
	s.mu.Lock()
	out := append([]time.Duration(nil), s.d...)
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 without samples.
func (s *samples) median() time.Duration {
	d := s.sorted()
	switch n := len(d); {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// tail is the highest whole percentile that still has at least ten
// samples beyond it, by the nearest-rank rule: percentile p is the
// ceil(p*n/100)-th smallest sample. Whole percentiles stop at p99, so a
// run with thousands of samples is not set by its handful of slowest
// outliers. With ten or fewer samples there is no such percentile and
// tail returns the maximum with percentile 100.
func (s *samples) tail() (time.Duration, float64) {
	d := s.sorted()
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	if n <= 10 {
		return d[n-1], 100
	}
	p := 100 * (n - 10) / n
	rank := (p*n + 99) / 100
	return d[rank-1], float64(p)
}

func (s *samples) sum() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t time.Duration
	for _, d := range s.d {
		t += d
	}
	return t
}

// tailNote renders the percentile and sample count printed next to a
// _tail metric.
func (s *samples) tailNote() string {
	_, p := s.tail()
	return fmt.Sprintf("p%.0f of %d samples", p, s.len())
}

func ms(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func sec(d time.Duration) float64 { return d.Seconds() }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
