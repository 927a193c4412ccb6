package core

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSubpopInsertOrdering(t *testing.T) {
	sp := newSubpop(2, 5)
	for _, f := range []float64{3, 1, 4, 1.5, 9} {
		h := newHaplotype([]int{int(f * 10), int(f*10) + 1}, f)
		if !sp.insert(h) {
			t.Fatalf("insert of %v failed", f)
		}
	}
	if sp.best().Fitness != 9 || sp.worst().Fitness != 1 {
		t.Fatalf("best/worst = %v/%v", sp.best().Fitness, sp.worst().Fitness)
	}
	for i := 1; i < len(sp.members); i++ {
		if sp.members[i-1].Fitness < sp.members[i].Fitness {
			t.Fatal("members not sorted descending")
		}
	}
}

func TestSubpopRejectsDuplicates(t *testing.T) {
	sp := newSubpop(2, 5)
	a := newHaplotype([]int{1, 2}, 5)
	if !sp.insert(a) {
		t.Fatal("first insert failed")
	}
	dup := newHaplotype([]int{1, 2}, 100)
	if sp.insert(dup) {
		t.Fatal("duplicate SNP set inserted")
	}
	if sp.best().Fitness != 5 {
		t.Fatal("duplicate changed the population")
	}
}

func TestSubpopCapacityEviction(t *testing.T) {
	sp := newSubpop(1, 2)
	sp.insert(newHaplotype([]int{1}, 1))
	sp.insert(newHaplotype([]int{2}, 2))
	// Worse than the worst: rejected.
	if sp.insert(newHaplotype([]int{3}, 0.5)) {
		t.Fatal("worse-than-worst inserted at capacity")
	}
	// Equal to the worst: rejected (strictly better required).
	if sp.insert(newHaplotype([]int{4}, 1)) {
		t.Fatal("equal-to-worst inserted at capacity")
	}
	// Better: evicts the worst.
	if !sp.insert(newHaplotype([]int{5}, 3)) {
		t.Fatal("better individual rejected")
	}
	if len(sp.members) != 2 || sp.worst().Fitness != 2 {
		t.Fatalf("eviction wrong: len=%d worst=%v", len(sp.members), sp.worst().Fitness)
	}
	// The evicted key is reusable again.
	if !sp.insert(newHaplotype([]int{1}, 10)) {
		t.Fatal("evicted key not reusable")
	}
}

func TestSubpopInsertRejectsWrongSizeAndUnevaluated(t *testing.T) {
	sp := newSubpop(2, 5)
	if sp.insert(newHaplotype([]int{1, 2, 3}, 1)) {
		t.Fatal("wrong-size haplotype inserted")
	}
	if sp.insert(&Haplotype{Sites: []int{1, 2}}) {
		t.Fatal("unevaluated haplotype inserted")
	}
}

func TestSubpopNormalized(t *testing.T) {
	sp := newSubpop(1, 5)
	sp.insert(newHaplotype([]int{1}, 10))
	sp.insert(newHaplotype([]int{2}, 20))
	sp.insert(newHaplotype([]int{3}, 30))
	if got := sp.normalized(30); got != 1 {
		t.Fatalf("normalized(best) = %v", got)
	}
	if got := sp.normalized(10); got != 0 {
		t.Fatalf("normalized(worst) = %v", got)
	}
	if got := sp.normalized(20); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("normalized(mid) = %v", got)
	}
	// Degenerate range.
	one := newSubpop(1, 2)
	one.insert(newHaplotype([]int{1}, 5))
	if one.normalized(5) != 0 {
		t.Fatal("degenerate normalization should be 0")
	}
}

func TestSubpopMeanAndBelowMean(t *testing.T) {
	sp := newSubpop(1, 5)
	for i, f := range []float64{1, 2, 3, 4, 10} {
		sp.insert(newHaplotype([]int{i}, f))
	}
	if sp.mean() != 4 {
		t.Fatalf("mean = %v", sp.mean())
	}
	below := sp.belowMean()
	if len(below) != 3 { // 1, 2, 3 are under mean 4
		t.Fatalf("belowMean returned %d members", len(below))
	}
}

func TestSubpopTournamentPrefersFit(t *testing.T) {
	sp := newSubpop(1, 10)
	for i := 0; i < 10; i++ {
		sp.insert(newHaplotype([]int{i}, float64(i)))
	}
	r := rng.New(5)
	sum := 0.0
	const draws = 2000
	for i := 0; i < draws; i++ {
		sum += sp.tournament(r, 3).Fitness
	}
	// With k=3 over U{0..9}, E[max] ~ 6.98 > uniform mean 4.5.
	if avg := sum / draws; avg < 6 {
		t.Fatalf("tournament mean fitness %v, want > 6", avg)
	}
	var empty subpop
	if empty.tournament(r, 2) != nil {
		t.Fatal("tournament on empty subpop should be nil")
	}
}

func TestSubpopRemove(t *testing.T) {
	sp := newSubpop(1, 5)
	a := newHaplotype([]int{1}, 1)
	b := newHaplotype([]int{2}, 2)
	sp.insert(a)
	sp.insert(b)
	sp.remove(a)
	if len(sp.members) != 1 || sp.contains(a) {
		t.Fatal("remove failed")
	}
	// Removing a non-member is a no-op.
	sp.remove(newHaplotype([]int{9}, 9))
	if len(sp.members) != 1 {
		t.Fatal("removing non-member changed population")
	}
	// The key is freed.
	if !sp.insert(newHaplotype([]int{1}, 3)) {
		t.Fatal("key not freed after remove")
	}
}

// TestSubpopKeyAllocs: membership tests and rejected inserts look
// their key up without allocating; an insert allocates only the key it
// stores, also when it evicts the worst member.
func TestSubpopKeyAllocs(t *testing.T) {
	sp := newSubpop(3, 4)
	for i := range 4 {
		sp.insert(newHaplotype([]int{i, 100 + i, 200000 + i}, float64(i+1)))
	}
	member := newHaplotype([]int{3, 103, 200003}, 9)
	worse := newHaplotype([]int{7, 8, 9}, 0.5)
	if got := testing.AllocsPerRun(100, func() {
		if !sp.contains(member) || sp.contains(worse) || sp.insert(member) || sp.insert(worse) {
			t.Fatal("membership changed")
		}
	}); got != 0 {
		t.Errorf("contains and rejected inserts made %v allocations, want 0", got)
	}
	next := 10.0
	if got := testing.AllocsPerRun(100, func() {
		next++
		h := &Haplotype{Sites: []int{int(next), 300000, 400000}, Fitness: next, Evaluated: true}
		if !sp.insert(h) {
			t.Fatal("fitter haplotype rejected")
		}
	}); got > 3 {
		// The haplotype, its sites and its stored key.
		t.Errorf("an evicting insert made %v allocations, want <= 3", got)
	}
}
