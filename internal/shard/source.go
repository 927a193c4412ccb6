package shard

import (
	"container/list"
	"fmt"
	"sync"

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

// DefaultHotShards is the LRU capacity when a caller passes 0: the
// number of materialized shards a source keeps resident. Eight shards
// of DefaultShardSize columns cover any MaxSNPs-wide candidate with
// room for concurrent evaluations on distant ranges.
const DefaultHotShards = 8

// lruSource is the shared Source core: an LRU of hot shards over a
// load function. Concurrent requests for the same missing shard share
// one load (per-entry ready latch); eviction only considers loaded
// entries, so a burst of distinct misses can briefly exceed the
// capacity rather than evicting work in progress.
type lruSource struct {
	plan Plan
	cap  int
	load func(i int) (*Shard, error)
	// data is the dataset the plan was made from (PlanFor), which the
	// load function reads.
	data *genotype.Dataset

	mu      sync.Mutex
	entries map[int]*lruEntry
	order   *list.List // front = most recently used; loaded entries only
	closed  bool
}

type lruEntry struct {
	index int
	ready chan struct{} // closed once shard/err are set
	shard *Shard
	err   error
	elem  *list.Element // nil until loaded
}

func newLRUSource(plan Plan, hot int, data *genotype.Dataset, load func(i int) (*Shard, error)) *lruSource {
	if hot <= 0 {
		hot = DefaultHotShards
	}
	return &lruSource{
		plan:    plan,
		cap:     hot,
		load:    load,
		data:    data,
		entries: make(map[int]*lruEntry),
		order:   list.New(),
	}
}

func (s *lruSource) Plan() Plan { return s.plan }

// dataset returns the dataset whose fingerprint the plan holds, so a
// caller holding that very dataset need not hash it again.
func (s *lruSource) dataset() *genotype.Dataset { return s.data }

func (s *lruSource) Shard(i int) (*Shard, error) {
	if i < 0 || i >= s.plan.NumShards() {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, s.plan.NumShards())
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("shard: source closed")
	}
	if e, ok := s.entries[i]; ok {
		if e.elem != nil {
			s.order.MoveToFront(e.elem)
		}
		s.mu.Unlock()
		<-e.ready
		return e.shard, e.err
	}
	e := &lruEntry{index: i, ready: make(chan struct{})}
	s.entries[i] = e
	s.mu.Unlock()

	sh, err := s.load(i)

	s.mu.Lock()
	e.shard, e.err = sh, err
	close(e.ready)
	if err != nil {
		// Failed loads are not cached: drop the entry so the next
		// request retries (unless Close already cleared the map).
		if s.entries[i] == e {
			delete(s.entries, i)
		}
		s.mu.Unlock()
		return nil, err
	}
	if !s.closed {
		e.elem = s.order.PushFront(e)
		for s.order.Len() > s.cap {
			old := s.order.Remove(s.order.Back()).(*lruEntry)
			delete(s.entries, old.index)
		}
	}
	s.mu.Unlock()
	return sh, nil
}

func (s *lruSource) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.entries = make(map[int]*lruEntry)
	s.order.Init()
	return nil
}

// resident returns the number of loaded shards currently held (tests).
func (s *lruSource) resident() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// NewMem builds a Source that materializes shards from the in-memory
// dataset, keeping the hot most recently used ones resident (0 =
// DefaultHotShards). An evicted shard is simply re-extracted on the
// next request; the dataset itself is never copied whole.
func NewMem(d *genotype.Dataset, shardSize, hot int) (Source, error) {
	plan, err := PlanFor(d, shardSize)
	if err != nil {
		return nil, err
	}
	return newLRUSource(plan, hot, d, func(i int) (*Shard, error) {
		return buildShard(d, plan.Metas[i]), nil
	}), nil
}
