package shard

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/genotype"
)

// Source hands out materialized shards of one plan on demand.
// Implementations must be safe for concurrent use; the shards they
// return are immutable and may be retained by callers across the
// source's own eviction.
type Source interface {
	// Plan returns the partitioning the source serves.
	Plan() Plan
	// Shard materializes shard i (0 <= i < Plan().NumShards()).
	Shard(i int) (*Shard, error)
	// Close releases the source's resources (cached shards, spill
	// handles). The source must not be used afterwards.
	Close() error
}

// DefaultHotShards is the resident capacity when a caller passes 0:
// the number of materialized shards a source keeps. Eight shards of
// DefaultShardSize columns cover any MaxSNPs-wide candidate with room
// for concurrent evaluations on distant ranges.
const DefaultHotShards = 8

// hotSource is the shared Source core: a bounded set of resident
// shards over a load function. A request for a resident shard is one
// atomic load of that index's pointer, and sets the index's reference
// bit if it is clear; it takes no lock. A miss takes the mutex:
// concurrent requests for one missing shard share one load (a
// per-index ready latch), a failed load is not kept, so the next
// request retries, and a loaded shard replaces one chosen by CLOCK
// (second chance): the hand passes over resident shards, clearing set
// reference bits, and evicts the first whose bit is clear. Only loaded
// shards are resident, so a burst of distinct misses can briefly hold
// more than the capacity in flight rather than evicting work in
// progress.
type hotSource struct {
	plan Plan
	cap  int
	load func(i int) (*Shard, error)
	// data is the dataset the plan was made from (PlanFor), which the
	// load function reads.
	data *genotype.Dataset

	// hot[i] is shard i while it is resident, else nil; ref[i] is its
	// reference bit. Both are read without the mutex; hot is written
	// under it.
	hot []atomic.Pointer[Shard]
	ref []atomic.Bool

	mu      sync.Mutex
	loading map[int]*pending // in-flight loads by shard index
	frames  []int            // resident shard indices, at most cap
	hand    int              // the next frame CLOCK inspects
	closed  bool
}

// pending is one in-flight shard load that concurrent requests share.
type pending struct {
	ready chan struct{} // closed once shard/err are set
	shard *Shard
	err   error
}

func newHotSource(plan Plan, hot int, data *genotype.Dataset, load func(i int) (*Shard, error)) *hotSource {
	if hot <= 0 {
		hot = DefaultHotShards
	}
	return &hotSource{
		plan:    plan,
		cap:     hot,
		load:    load,
		data:    data,
		hot:     make([]atomic.Pointer[Shard], plan.NumShards()),
		ref:     make([]atomic.Bool, plan.NumShards()),
		loading: make(map[int]*pending),
	}
}

func (s *hotSource) Plan() Plan { return s.plan }

// dataset returns the dataset whose fingerprint the plan holds, so a
// caller holding that very dataset need not hash it again.
func (s *hotSource) dataset() *genotype.Dataset { return s.data }

func (s *hotSource) Shard(i int) (*Shard, error) {
	if i < 0 || i >= len(s.hot) {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, len(s.hot))
	}
	if sh := s.hot[i].Load(); sh != nil {
		s.touch(i)
		return sh, nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("shard: source closed")
	}
	if sh := s.hot[i].Load(); sh != nil { // loaded since the check above
		s.mu.Unlock()
		s.touch(i)
		return sh, nil
	}
	if l, ok := s.loading[i]; ok {
		s.mu.Unlock()
		<-l.ready
		return l.shard, l.err
	}
	l := &pending{ready: make(chan struct{})}
	s.loading[i] = l
	s.mu.Unlock()

	sh, err := s.load(i)

	s.mu.Lock()
	l.shard, l.err = sh, err
	close(l.ready)
	if s.loading[i] == l { // Close may have cleared the map
		delete(s.loading, i)
	}
	if err == nil && !s.closed {
		s.admit(i, sh)
	}
	s.mu.Unlock()
	return sh, err
}

// touch sets shard i's reference bit, writing it only when it is
// clear so that hits on a hot shard share its cache line read-only.
func (s *hotSource) touch(i int) {
	if !s.ref[i].Load() {
		s.ref[i].Store(true)
	}
}

// admit makes the freshly loaded shard i resident, evicting by CLOCK
// once every frame is taken. The hand sweeps at most one revolution,
// so hits that keep setting bits cannot hold it. s.mu must be held.
func (s *hotSource) admit(i int, sh *Shard) {
	s.ref[i].Store(true)
	if len(s.frames) < s.cap {
		s.frames = append(s.frames, i)
	} else {
		for n := 0; n < len(s.frames) && s.ref[s.frames[s.hand]].Load(); n++ {
			s.ref[s.frames[s.hand]].Store(false)
			s.hand = (s.hand + 1) % len(s.frames)
		}
		s.hot[s.frames[s.hand]].Store(nil)
		s.frames[s.hand] = i
		s.hand = (s.hand + 1) % len(s.frames)
	}
	s.hot[i].Store(sh)
}

func (s *hotSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, i := range s.frames {
		s.hot[i].Store(nil)
	}
	s.frames = nil
	s.loading = make(map[int]*pending)
	return nil
}

// resident returns the number of shards the hit path can serve
// (tests).
func (s *hotSource) resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.hot {
		if s.hot[i].Load() != nil {
			n++
		}
	}
	return n
}

// NewMem builds a Source that materializes shards from the in-memory
// dataset, keeping at most hot of them resident (0 =
// DefaultHotShards), evicted by CLOCK. An evicted shard is simply
// re-extracted on the next request; the dataset itself is never
// copied whole.
func NewMem(d *genotype.Dataset, shardSize, hot int) (Source, error) {
	plan, err := PlanFor(d, shardSize)
	if err != nil {
		return nil, err
	}
	return newHotSource(plan, hot, d, func(i int) (*Shard, error) {
		return buildShard(d, plan.Metas[i]), nil
	}), nil
}
