package engine

import (
	"sync"

	"repro/internal/fitness"
)

// defaultShards is the shard count of the fitness cache. Sharding by
// key hash keeps lock contention negligible even with every worker
// and several concurrent batches touching the cache.
const defaultShards = 64

// cacheKey implements the package's canonicalization rule: 8-byte
// big-endian dataset fingerprint, then fitness.AppendSiteKey's site
// identity. sites must already be canonical (fitness.CanonicalSites).
func cacheKey(fingerprint uint64, sites []int) string {
	b := make([]byte, 8, 8+4*len(sites))
	for i := 0; i < 8; i++ {
		b[i] = byte(fingerprint >> (8 * (7 - i)))
	}
	return string(fitness.AppendSiteKey(b, sites))
}

// shardedCache is a fixed-shard concurrent map from cache key to
// fitness value. Errors are never cached.
type shardedCache struct {
	shards []cacheShard
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[string]float64
}

func newShardedCache() *shardedCache {
	c := &shardedCache{shards: make([]cacheShard, defaultShards)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]float64)
	}
	return c
}

// fnv64Offset and fnv64Prime are the FNV-1a 64-bit parameters (the
// same ones genotype.Fingerprint uses).
const (
	fnv64Offset uint64 = 14695981039346656037
	fnv64Prime  uint64 = 1099511628211
)

// shard picks the shard of a key by FNV-1a hash.
func (c *shardedCache) shard(key string) *cacheShard {
	h := fnv64Offset
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnv64Prime
	}
	return &c.shards[h%uint64(len(c.shards))]
}

func (c *shardedCache) get(key string) (float64, bool) {
	s := c.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

func (c *shardedCache) set(key string, v float64) {
	s := c.shard(key)
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// len returns the total number of memoized entries.
func (c *shardedCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.RLock()
		n += len(c.shards[i].m)
		c.shards[i].mu.RUnlock()
	}
	return n
}
