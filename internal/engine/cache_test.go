package engine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(slot{}); got != slotBytes {
		t.Fatalf("slot is %d bytes, want slotBytes = %d", got, slotBytes)
	}
	if got := unsafe.Sizeof(cacheShard{}); got%64 != 0 {
		t.Fatalf("cacheShard is %d bytes, want a multiple of a 64-byte cache line", got)
	}
}

// craftHash returns a hash whose probe start is start in every shard
// table larger than start; id sets the bits above any probe index, so
// two ids give two tags with one start, and one id gives one tag.
func craftHash(start, id int) uint64 {
	return uint64(id)<<32 | uint64(start)<<shardBits
}

// craftKey is a distinct key per id.
func craftKey(id int) []byte { return []byte(fmt.Sprintf("key-%04d", id)) }

var errBoom = errors.New("boom")

// checkShard verifies a shard's table invariants: every occupied slot
// is reachable from its probe start without crossing an empty slot,
// the counters match the slots, each pending slot names a live flight
// of its own, and the arena holds every key plus exactly dead bytes.
func checkShard(t *testing.T, s *cacheShard) {
	t.Helper()
	if len(s.slots)&(len(s.slots)-1) != 0 {
		t.Fatalf("table size %d is not a power of two", len(s.slots))
	}
	mask := uint64(len(s.slots) - 1)
	used, pending, live := 0, 0, 0
	flightOf := map[uint64]bool{}
	for p := range s.slots {
		sl := s.slots[p]
		if sl.tag == 0 {
			if sl != (slot{}) {
				t.Fatalf("empty slot %d is not zero: %+v", p, sl)
			}
			continue
		}
		used++
		n := int(sl.n &^ pendingBit)
		live += n
		if int(sl.off)+n > len(s.arena) {
			t.Fatalf("slot %d: key [%d, %d) past the arena's %d bytes", p, sl.off, int(sl.off)+n, len(s.arena))
		}
		for q := (sl.tag >> shardBits) & mask; q != uint64(p); q = (q + 1) & mask {
			if s.slots[q].tag == 0 {
				t.Fatalf("slot %d (start %d) is cut off by the empty slot %d", p, (sl.tag>>shardBits)&mask, q)
			}
		}
		if sl.n&pendingBit != 0 {
			pending++
			if sl.word >= uint64(len(s.flights)) || s.flights[sl.word] == nil {
				t.Fatalf("pending slot %d names flight %d, which is not live", p, sl.word)
			}
			if flightOf[sl.word] {
				t.Fatalf("flight %d named by two pending slots", sl.word)
			}
			flightOf[sl.word] = true
			if s.flights[sl.word].idx != int32(sl.word) {
				t.Fatalf("flight %d records index %d", sl.word, s.flights[sl.word].idx)
			}
		}
	}
	if used != s.used {
		t.Fatalf("used = %d, want %d occupied slots", s.used, used)
	}
	if used > len(s.slots)/4*3 {
		t.Fatalf("%d slots of %d occupied, past the 3/4 load bound", used, len(s.slots))
	}
	if pending != len(s.flights)-len(s.free) {
		t.Fatalf("%d pending slots, but %d flights minus %d free", pending, len(s.flights), len(s.free))
	}
	for _, i := range s.free {
		if s.flights[i] != nil {
			t.Fatalf("free flight index %d still holds a flight", i)
		}
	}
	if live+s.dead != len(s.arena) {
		t.Fatalf("arena holds %d bytes, want %d live + %d dead", len(s.arena), live, s.dead)
	}
}

// lead looks a key up and fails unless the shard makes it a new
// pending key; it returns the key's flight.
func lead(t *testing.T, s *cacheShard, h uint64, key []byte) *flight {
	t.Helper()
	f := new(flight)
	if g, v, hit := s.lookup(h, key, f); g != nil || hit {
		t.Fatalf("key %q: follow %v, hit %v (value %v); want a new key", key, g != nil, hit, v)
	}
	return f
}

// wantHit fails unless the key has the value v.
func wantHit(t *testing.T, s *cacheShard, h uint64, key []byte, v float64) {
	t.Helper()
	g, got, hit := s.lookup(h, key, new(flight))
	if !hit || g != nil || got != v {
		t.Fatalf("key %q: hit %v, follow %v, value %v; want a hit of %v", key, hit, g != nil, got, v)
	}
}

func TestCacheShardGrowsWhileInFlight(t *testing.T) {
	var s cacheShard
	// Every key starts its probe at slot 3 of every table; pairs of
	// keys share one hash (so one tag), told apart by their bytes.
	const n = 100
	hashOf := func(i int) uint64 { return craftHash(3, i/2) }
	flights := make([]*flight, n)
	for i := 0; i < n; i++ {
		flights[i] = lead(t, &s, hashOf(i), craftKey(i))
		checkShard(t, &s)
	}
	if s.used != n || len(s.slots) <= minSlots {
		t.Fatalf("table of %d slots holds %d keys, want %d after growth", len(s.slots), s.used, n)
	}
	// Followers find every flight across the growth.
	for i := 0; i < n; i += 7 {
		if g, _, _ := s.lookup(hashOf(i), craftKey(i), new(flight)); g != flights[i] {
			t.Fatalf("key %d: followed %p, want its flight %p", i, g, flights[i])
		}
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		done := s.publish(hashOf(i), flights[i], float64(i), nil)
		if (i%7 == 0) != (done != nil) {
			t.Fatalf("key %d: done channel %v, want one only where a follower joined", i, done != nil)
		}
		checkShard(t, &s)
	}
	for i := 0; i < n; i++ {
		wantHit(t, &s, hashOf(i), craftKey(i), float64(i))
	}
	if len(s.flights) > n || len(s.free) != len(s.flights) {
		t.Fatalf("%d flights, %d free after every publish", len(s.flights), len(s.free))
	}
}

// fillChain leads keys whose probe starts are starts, in a fresh shard
// of minSlots slots, and publishes value i for every key i but pend,
// whose flight it returns.
func fillChain(t *testing.T, starts []int, pend int) (*cacheShard, *flight) {
	t.Helper()
	s := new(cacheShard)
	var pf *flight
	for i, st := range starts {
		f := lead(t, s, craftHash(st, i), craftKey(i))
		if i == pend {
			pf = f
			continue
		}
		s.publish(craftHash(st, i), f, float64(i), nil)
	}
	if len(s.slots) != minSlots {
		t.Fatalf("table has %d slots, want %d", len(s.slots), minSlots)
	}
	checkShard(t, s)
	return s, pf
}

func TestCacheShardBackwardShift(t *testing.T) {
	for _, c := range []struct {
		name   string
		starts []int // probe start of key i
		remove int   // the key whose flight fails
		want   []int // slot of each remaining key afterwards
	}{
		// Keys 0-2 start at 4 and fill 4-6; key 3 (start 6) sits in 7
		// and key 4 (start 5) in 8. Removing key 1 pulls each later
		// key back one slot.
		{"middle", []int{4, 4, 4, 6, 5}, 1, []int{4, -1, 5, 6, 7}},
		// Key 2 sits at its own start 6 and stays; key 3 (start 4, in
		// slot 7) jumps over it into the hole.
		{"skip", []int{4, 4, 6, 4}, 1, []int{4, -1, 6, 5}},
		// A chain from 14 wraps past the end: keys 0-3 start at 14 and
		// sit in 14, 15, 0, 1; key 4 starts at 0 and sits in 2.
		// Removing key 1 (slot 15) shifts every later key back one
		// slot, across the wrap.
		{"wrap", []int{14, 14, 14, 14, 0}, 1, []int{14, -1, 15, 0, 1}},
		// Removing key 2 (slot 0, past the wrap) shifts keys 3 and 4.
		{"past-wrap", []int{14, 14, 14, 14, 0}, 2, []int{14, 15, -1, 0, 1}},
		// Key 1 sits at its start 0 and may not move back across the
		// wrap into slot 15; key 2 (start 15, in slot 1) does.
		{"skip-wrap", []int{15, 0, 15}, 0, []int{-1, 0, 15}},
		// Removing the chain's last key moves nothing.
		{"tail", []int{14, 14, 14, 14, 0}, 4, []int{14, 15, 0, 1, -1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, f := fillChain(t, c.starts, c.remove)
			s.publish(craftHash(c.starts[c.remove], c.remove), f, 0, errBoom)
			checkShard(t, s)
			for i, st := range c.starts {
				if i == c.remove {
					continue
				}
				h := craftHash(st, i)
				if sl := s.slots[c.want[i]]; sl.tag != h|1 {
					t.Errorf("key %d: slot %d holds tag %#x, want the key's %#x", i, c.want[i], sl.tag, h|1)
				}
				wantHit(t, s, h, craftKey(i), float64(i))
			}
			// The failed key is gone: it is led again.
			h := craftHash(c.starts[c.remove], c.remove)
			s.publish(h, lead(t, s, h, craftKey(c.remove)), 0, errBoom)
			checkShard(t, s)
		})
	}
}

func TestCacheShardReleadsAfterError(t *testing.T) {
	var s cacheShard
	h, key := craftHash(5, 1), craftKey(1)
	f := lead(t, &s, h, key)
	// A follower joins the failing flight and is woken with its error.
	g, _, _ := s.lookup(h, key, new(flight))
	if g != f {
		t.Fatalf("followed %p, want the leader's flight %p", g, f)
	}
	done := s.publish(h, f, 0, errBoom)
	if done == nil {
		t.Fatal("no done channel for a flight with a follower")
	}
	close(done)
	if !errors.Is(g.err, errBoom) {
		t.Fatalf("follower read %v, want the flight's error", g.err)
	}
	checkShard(t, &s)
	if s.used != 0 || s.dead != len(s.arena) {
		t.Fatalf("after the error: %d slots used, %d dead of %d arena bytes", s.used, s.dead, len(s.arena))
	}
	// The key is led anew, on a fresh flight, and then cached.
	f2 := lead(t, &s, h, key)
	if done := s.publish(h, f2, 2.5, nil); done != nil {
		t.Fatal("done channel for a flight nobody followed")
	}
	wantHit(t, &s, h, key, 2.5)
	checkShard(t, &s)
}

func TestCacheShardRebuildsArena(t *testing.T) {
	var s cacheShard
	const n = 40
	flights := make([]*flight, n)
	for i := 0; i < n; i++ {
		flights[i] = lead(t, &s, craftHash(i, i), craftKey(i))
	}
	// Keys 0-9 get values and 31-39 stay in flight across the rebuild;
	// 10-30 fail one by one. Their bytes stay dead while they are no
	// more than the live ones: 20 failures against 20 live keys.
	for i := 0; i < 10; i++ {
		s.publish(craftHash(i, i), flights[i], float64(i), nil)
	}
	keyLen := len(craftKey(0))
	for i := 10; i < 30; i++ {
		s.publish(craftHash(i, i), flights[i], 0, errBoom)
		checkShard(t, &s)
		if failed := i - 9; s.dead != failed*keyLen {
			t.Fatalf("after %d failures: %d dead bytes, want %d", failed, s.dead, failed*keyLen)
		}
	}
	// The 21st failure crosses the bound, 21 dead keys against 19
	// live: the arena is rebuilt with the live keys alone.
	s.publish(craftHash(30, 30), flights[30], 0, errBoom)
	checkShard(t, &s)
	if s.dead != 0 || len(s.arena) != 19*keyLen {
		t.Fatalf("arena not rebuilt: %d dead bytes, %d bytes; want 0 and %d", s.dead, len(s.arena), 19*keyLen)
	}
	for i := 31; i < n; i++ {
		s.publish(craftHash(i, i), flights[i], float64(i), nil)
	}
	checkShard(t, &s)
	for i := 0; i < n; i++ {
		if i >= 10 && i <= 30 {
			f := lead(t, &s, craftHash(i, i), craftKey(i))
			s.publish(craftHash(i, i), f, 0, errBoom)
			continue
		}
		wantHit(t, &s, craftHash(i, i), craftKey(i), float64(i))
	}
	checkShard(t, &s)
}

// TestCacheShardMatchesMapModel drives one shard with random lookups
// and publishes over a small key universe whose hashes collide often
// (few probe starts, shared tags), and checks every outcome against a
// map model of the same cache.
func TestCacheShardMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const universe = 300
	hashOf := func(i int) uint64 { return craftHash(i%5, i%37) }
	type state struct {
		value   float64
		pending *flight
	}
	model := map[int]state{}
	c := &shardedCache{shards: make([]cacheShard, 1)}
	s := &c.shards[0]
	var inFlight []int
	for step := 0; step < 20000; step++ {
		if len(inFlight) > 0 && rng.Intn(2) == 0 {
			x := rng.Intn(len(inFlight))
			i := inFlight[x]
			inFlight[x] = inFlight[len(inFlight)-1]
			inFlight = inFlight[:len(inFlight)-1]
			f := model[i].pending
			if rng.Intn(3) == 0 {
				s.publish(hashOf(i), f, 0, errBoom)
				delete(model, i)
			} else {
				v := math.Float64frombits(rng.Uint64())
				s.publish(hashOf(i), f, v, nil)
				model[i] = state{value: v}
			}
		} else {
			i := rng.Intn(universe)
			f := new(flight)
			g, v, hit := s.lookup(hashOf(i), craftKey(i), f)
			st, ok := model[i]
			switch {
			case !ok:
				if g != nil || hit {
					t.Fatalf("step %d: key %d absent from the model, got follow %v hit %v", step, i, g != nil, hit)
				}
				model[i] = state{pending: f}
				inFlight = append(inFlight, i)
			case st.pending != nil:
				if g != st.pending {
					t.Fatalf("step %d: key %d in flight, got follow %p hit %v, want %p", step, i, g, hit, st.pending)
				}
			default:
				if !hit || math.Float64bits(v) != math.Float64bits(st.value) {
					t.Fatalf("step %d: key %d = %v, got hit %v value %v", step, i, st.value, hit, v)
				}
			}
		}
		if step%97 == 0 {
			checkShard(t, s)
		}
	}
	checkShard(t, s)
	entries, _ := c.size()
	if want := len(model) - len(inFlight); entries != want {
		t.Fatalf("size reports %d entries, want %d", entries, want)
	}
}

func TestReportCacheBytes(t *testing.T) {
	e, _ := newTestEngine(t, Options{Workers: 1})
	if r := e.Report(); r.CacheEntries != 0 || r.CacheBytes != 0 {
		t.Fatalf("fresh engine: %d entries, %d bytes; want 0 and 0", r.CacheEntries, r.CacheBytes)
	}
	if _, err := e.Evaluate([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	// One shard holds the key: its first slot table and arena, and a
	// flight table and free list of one or two entries each.
	r := e.Report()
	if lo := minSlots*slotBytes + minArena; r.CacheEntries != 1 || r.CacheBytes < lo || r.CacheBytes > lo+32 {
		t.Fatalf("one key: %d entries, %d bytes; want 1 and %d to %d", r.CacheEntries, r.CacheBytes, lo, lo+32)
	}
}
