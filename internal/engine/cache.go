package engine

import (
	"sync"

	"repro/internal/fitness"
)

// defaultShards is the shard count of the fitness cache. Sharding by
// key hash keeps lock contention negligible even with every worker
// and several concurrent batches touching the cache.
const defaultShards = 64

// appendKey implements the package's canonicalization rule: it
// appends the 8-byte big-endian dataset fingerprint, then
// fitness.AppendSiteKey's site identity. sites must already be
// canonical (fitness.CanonicalSites).
func appendKey(dst []byte, fingerprint uint64, sites []int) []byte {
	dst = append(dst,
		byte(fingerprint>>56), byte(fingerprint>>48), byte(fingerprint>>40), byte(fingerprint>>32),
		byte(fingerprint>>24), byte(fingerprint>>16), byte(fingerprint>>8), byte(fingerprint))
	return fitness.AppendSiteKey(dst, sites)
}

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters (the
// same ones genotype.Fingerprint uses).
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// keyHash is the FNV-1a hash of a cache key. A batch computes it once
// per distinct key and uses it for both its dedupe probe and the cache
// shard.
func keyHash(key []byte) uint64 {
	h := fnv64Offset
	for _, b := range key {
		h ^= uint64(b)
		h *= fnv64Prime
	}
	return h
}

// shardedCache is a fixed-shard concurrent map from cache key to
// fitness value, together with the singleflight table of the keys
// being computed. Both are sharded by keyHash, and one shard lock
// guards a key's value and its flight, so leading a key, joining its
// flight and publishing its outcome (value in, flight out) are each
// one critical section on the key's own shard. Errors are never
// cached.
type shardedCache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu       sync.Mutex
	m        map[string]float64
	inflight map[string]*flight
	_        [40]byte // pad to a 64-byte cache line: no false sharing between shards
}

func newShardedCache() *shardedCache {
	c := &shardedCache{shards: make([]cacheShard, defaultShards)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]float64)
		c.shards[i].inflight = make(map[string]*flight)
	}
	return c
}

// shard picks the shard of a key by its keyHash.
func (c *shardedCache) shard(h uint64) *cacheShard {
	return &c.shards[h%uint64(len(c.shards))]
}

// get looks a value up by its key's bytes; the lookup converts nothing
// to a string, so it allocates nothing.
func (c *shardedCache) get(h uint64, key []byte) (float64, bool) {
	s := c.shard(h)
	s.mu.Lock()
	v, ok := s.m[string(key)]
	s.mu.Unlock()
	return v, ok
}

// lead settles a key that missed the cache. If the key is in flight,
// it returns that flight, whose done channel (made here by the first
// follower) its publisher will close. If a leader published the value
// since the miss, it returns the value as a hit. Otherwise f becomes
// the key's flight and lead returns neither: the caller leads.
func (c *shardedCache) lead(h uint64, key string, f *flight) (follow *flight, v float64, hit bool) {
	s := c.shard(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.inflight[key]; ok {
		if g.done == nil {
			g.done = make(chan struct{})
		}
		return g, 0, false
	}
	if v, ok := s.m[key]; ok {
		return nil, v, true
	}
	s.inflight[key] = f
	return nil, 0, false
}

// publish lands the outcome of the flight f of key: the value, unless
// err is set, and the flight's removal, in one critical section, so a
// batch that misses the flight finds the value. It returns the
// channel to close to wake the flight's followers, nil if none joined.
func (c *shardedCache) publish(h uint64, key string, f *flight, v float64, err error) chan struct{} {
	f.value, f.err = v, err
	s := c.shard(h)
	s.mu.Lock()
	if err == nil {
		s.m[key] = v
	}
	delete(s.inflight, key)
	done := f.done
	s.mu.Unlock()
	return done
}

// len returns the total number of memoized entries.
func (c *shardedCache) len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
