package core

import (
	"fmt"
	"strings"
	"testing"
)

// newHaplotype builds an evaluated haplotype from sites that must
// already be strictly increasing.
func newHaplotype(sites []int, fitness float64) *Haplotype {
	return &Haplotype{Sites: sites, Fitness: fitness, Evaluated: true}
}

func TestHaplotypeKeyAndEqualSets(t *testing.T) {
	a := newHaplotype([]int{1, 5, 9}, 3)
	b := newHaplotype([]int{1, 5, 9}, 7)
	c := newHaplotype([]int{1, 5, 10}, 3)
	if a.Key() != b.Key() {
		t.Fatal("same sites produced different keys")
	}
	if a.Key() == c.Key() {
		t.Fatal("different sites produced the same key")
	}
	// Keys must not collide across "digit boundaries": {1, 23} vs {12, 3}.
	d := newHaplotype([]int{1, 23}, 0)
	e := newHaplotype([]int{12, 3}, 0) // not sorted, but key must still differ
	if d.Key() == e.Key() {
		t.Fatal("key collision between {1,23} and {12,3}")
	}
}

// TestHaplotypeKeyText: Key is the sites in decimal, comma-separated,
// as fmt prints them, also past the stack buffer's 64 bytes.
func TestHaplotypeKeyText(t *testing.T) {
	for _, sites := range [][]int{
		nil,
		{0},
		{7, 42, 999, 123456},
		{1000000, 2000000, 3000000, 4000000, 5000000, 6000000, 7000000, 8000000, 9000000, 10000000},
	} {
		parts := make([]string, len(sites))
		for i, s := range sites {
			parts[i] = fmt.Sprintf("%d", s)
		}
		if got, want := newHaplotype(sites, 0).Key(), strings.Join(parts, ","); got != want {
			t.Errorf("Key(%v) = %q, want %q", sites, got, want)
		}
	}
}

func TestHaplotypeCloneIsDeep(t *testing.T) {
	a := newHaplotype([]int{2, 4}, 1.5)
	b := a.Clone()
	b.Sites[0] = 99
	b.Fitness = 42
	if a.Sites[0] != 2 || a.Fitness != 1.5 {
		t.Fatal("Clone shares state")
	}
}

func TestHaplotypeContains(t *testing.T) {
	h := newHaplotype([]int{3, 7, 11}, 0)
	for _, s := range []int{3, 7, 11} {
		if !h.Contains(s) {
			t.Errorf("Contains(%d) = false", s)
		}
	}
	for _, s := range []int{0, 5, 12} {
		if h.Contains(s) {
			t.Errorf("Contains(%d) = true", s)
		}
	}
}

func TestHaplotypeStringOneBased(t *testing.T) {
	h := newHaplotype([]int{7, 11, 14}, 58.814)
	s := h.String()
	if !strings.HasPrefix(s, "8 12 15") {
		t.Fatalf("String() = %q, want 1-based SNP numbers 8 12 15", s)
	}
	if !strings.Contains(s, "58.814") {
		t.Fatalf("String() = %q missing fitness", s)
	}
	u := &Haplotype{Sites: []int{0}}
	if strings.Contains(u.String(), "fitness") {
		t.Fatal("unevaluated haplotype should not print fitness")
	}
}

func TestValidSites(t *testing.T) {
	cases := []struct {
		sites []int
		n     int
		want  bool
	}{
		{[]int{0, 1, 2}, 5, true},
		{[]int{}, 5, true},
		{[]int{2, 2}, 5, false},
		{[]int{3, 1}, 5, false},
		{[]int{-1}, 5, false},
		{[]int{5}, 5, false},
	}
	for _, c := range cases {
		if got := validSites(c.sites, c.n); got != c.want {
			t.Errorf("validSites(%v, %d) = %v", c.sites, c.n, got)
		}
	}
}

func TestInsertSorted(t *testing.T) {
	s := []int{2, 5, 9}
	s = insertSorted(s, 7)
	want := []int{2, 5, 7, 9}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("insertSorted = %v", s)
		}
	}
	s = insertSorted(s, 1)
	if s[0] != 1 {
		t.Fatalf("prepend failed: %v", s)
	}
	s = insertSorted(s, 100)
	if s[len(s)-1] != 100 {
		t.Fatalf("append failed: %v", s)
	}
	var empty []int
	empty = insertSorted(empty, 3)
	if len(empty) != 1 || empty[0] != 3 {
		t.Fatalf("insert into empty: %v", empty)
	}
}
