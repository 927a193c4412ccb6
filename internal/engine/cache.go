package engine

import (
	"bytes"
	"math"
	"math/bits"
	"sync"

	"repro/internal/fitness"
)

// shardBits sets the shard count of the fitness cache. Sharding by key
// hash keeps lock contention negligible even with every worker and
// several concurrent batches touching the cache. A key's shard is the
// low shardBits of its keyHash; its probe start within the shard's
// table comes from the bits above them.
const (
	shardBits     = 6
	defaultShards = 1 << shardBits
)

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
// per distinct key and uses it for its dedupe probe, the cache shard
// and the probe within that shard.
func keyHash(key []byte) uint64 {
	h := fnv64Offset
	for _, b := range key {
		h ^= uint64(b)
		h *= fnv64Prime
	}
	return h
}

// shardedCache is a fixed-shard concurrent table from cache key to
// fitness value that also holds the singleflight state of the keys
// being computed: a key is either published (its value) or pending
// (its flight). One shard lock guards a key's slot, so settling a key
// (hit, follow or lead), and publishing its outcome, are each one
// critical section on the key's own shard. Errors are never cached.
type shardedCache struct {
	shards []cacheShard
}

// cacheShard is one shard's open-addressing table: power-of-two slots
// probed linearly, the keys' bytes in an append-only arena, and the
// flights of its pending keys. Neither the slots nor the arena hold a
// pointer, so the collector never scans them; only the small flight
// table does.
type cacheShard struct {
	mu    sync.Mutex
	slots []slot // nil until the first key; len is a power of two
	used  int    // occupied slots, pending ones included
	arena []byte // key bytes; a removed key's bytes stay until a rebuild
	dead  int    // bytes of removed keys still in arena
	// flights maps a pending slot's flight index to its flight; free
	// lists the indices no flight holds.
	flights []*flight
	free    []int32
	_       [8]byte // pad to two 64-byte cache lines: no false sharing between shards
}

// slot is one entry of a shard's table. tag is the key's keyHash with
// its low bit set, so an empty slot (tag 0) never matches a key; off
// and n locate the key in the shard's arena. While the key's flight
// runs, n carries pendingBit and word is the flight's index in the
// flights table; once published, word holds the value's bits.
type slot struct {
	tag  uint64
	off  uint32
	n    uint32
	word uint64
}

// slotBytes is the size of a slot (pinned by TestSlotLayout).
const slotBytes = 24

// pendingBit marks, in slot.n, a key whose flight is still running.
const pendingBit = 1 << 31

// minSlots and minArena are a shard's table size and arena capacity
// at its first key. minArena is a power of two, so the arena grows
// through the capacities it would reach by appending from empty.
const (
	minSlots = 16
	minArena = 256
)

func newShardedCache() *shardedCache {
	return &shardedCache{shards: make([]cacheShard, defaultShards)}
}

// shard picks the shard of a key by its keyHash.
func (c *shardedCache) shard(h uint64) *cacheShard {
	return &c.shards[h&(defaultShards-1)]
}

// size returns the number of memoized values and the bytes the cache
// holds for them: slot tables, arena capacity and flight tables.
func (c *shardedCache) size() (entries, nbytes int) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		entries += s.used - (len(s.flights) - len(s.free))
		nbytes += len(s.slots)*slotBytes + cap(s.arena) + cap(s.flights)*bits.UintSize/8 + cap(s.free)*4
		s.mu.Unlock()
	}
	return entries, nbytes
}

// lookup settles a key of hash h on its shard s, under the shard lock,
// in one of three ways. If the key has a value, lookup returns it as a
// hit. If the key's flight is running, lookup returns that flight,
// whose done channel (made here by the first follower) its publisher
// will close. Otherwise the key is new: lookup inserts it as pending,
// with f as its flight, and returns neither: the caller leads and must
// publish f.
func (s *cacheShard) lookup(h uint64, key []byte, f *flight) (follow *flight, v float64, hit bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.used >= len(s.slots)/4*3 {
		s.grow()
	}
	tag := h | 1
	mask := uint64(len(s.slots) - 1)
	for p := (h >> shardBits) & mask; ; p = (p + 1) & mask {
		sl := &s.slots[p]
		if sl.tag == 0 {
			f.idx = s.takeFlight(f)
			*sl = slot{tag: tag, off: uint32(len(s.arena)), n: uint32(len(key)) | pendingBit, word: uint64(f.idx)}
			s.arena = append(s.arena, key...)
			s.used++
			return nil, 0, false
		}
		if sl.tag != tag || sl.n&^pendingBit != uint32(len(key)) || !bytes.Equal(s.arena[sl.off:sl.off+uint32(len(key))], key) {
			continue
		}
		if sl.n&pendingBit == 0 {
			return nil, math.Float64frombits(sl.word), true
		}
		g := s.flights[sl.word]
		if g.done == nil {
			g.done = make(chan struct{})
		}
		return g, 0, false
	}
}

// publish lands the outcome of the flight f of a key of hash h, which
// lookup made pending on s: unless err is set, the value replaces the
// flight in the key's slot; on an error the slot is removed, so the
// key is led again by its next lookup. Either way the flight index is
// freed, in the same critical section, so a lookup that misses the
// flight finds the value. It returns the channel to close to wake the
// flight's followers, nil if none joined.
func (s *cacheShard) publish(h uint64, f *flight, v float64, err error) chan struct{} {
	f.value, f.err = v, err
	s.mu.Lock()
	p := s.pending(h|1, f.idx)
	if err == nil {
		s.slots[p].n &^= pendingBit
		s.slots[p].word = math.Float64bits(v)
	} else {
		s.remove(p)
	}
	s.flights[f.idx] = nil
	s.free = append(s.free, f.idx)
	done := f.done
	s.mu.Unlock()
	return done
}

// takeFlight registers f in the flight table and returns its index.
func (s *cacheShard) takeFlight(f *flight) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.flights[i] = f
		return i
	}
	s.flights = append(s.flights, f)
	return int32(len(s.flights) - 1)
}

// pending returns the position of the pending slot of tag whose flight
// index is idx. Flight indices are unique among a shard's pending
// slots, and unlike arena offsets they survive an arena rebuild.
func (s *cacheShard) pending(tag uint64, idx int32) uint64 {
	mask := uint64(len(s.slots) - 1)
	for p := (tag >> shardBits) & mask; ; p = (p + 1) & mask {
		sl := &s.slots[p]
		if sl.tag == tag && sl.n&pendingBit != 0 && sl.word == uint64(idx) {
			return p
		}
	}
}

// grow doubles the slot table (or makes its first one, with the
// arena's) and reinserts every slot by its stored tag; no key byte is
// read.
func (s *cacheShard) grow() {
	old := s.slots
	if old == nil {
		s.arena = make([]byte, 0, minArena)
	}
	s.slots = make([]slot, max(minSlots, 2*len(old)))
	mask := uint64(len(s.slots) - 1)
	for _, sl := range old {
		if sl.tag == 0 {
			continue
		}
		p := (sl.tag >> shardBits) & mask
		for s.slots[p].tag != 0 {
			p = (p + 1) & mask
		}
		s.slots[p] = sl
	}
}

// remove empties slot p by backward-shift deletion: each later slot of
// the probe chain that may sit at or before p (its probe start is not
// in the cyclic range (p, q]) moves back into the hole, so no
// tombstone is left and every chain stays unbroken. The key's bytes
// become dead; once dead bytes exceed live ones the arena is rebuilt.
func (s *cacheShard) remove(p uint64) {
	s.dead += int(s.slots[p].n &^ pendingBit)
	s.used--
	mask := uint64(len(s.slots) - 1)
	for q := (p + 1) & mask; s.slots[q].tag != 0; q = (q + 1) & mask {
		start := (s.slots[q].tag >> shardBits) & mask
		if (q-start)&mask >= (q-p)&mask {
			s.slots[p] = s.slots[q]
			p = q
		}
	}
	s.slots[p] = slot{}
	if s.dead > len(s.arena)-s.dead {
		s.rebuild()
	}
}

// rebuild copies the live keys into a fresh arena, dropping the dead
// bytes, and points their slots at the copies.
func (s *cacheShard) rebuild() {
	var arena []byte
	if live := len(s.arena) - s.dead; live > 0 {
		arena = make([]byte, 0, live)
	}
	for i := range s.slots {
		sl := &s.slots[i]
		if sl.tag == 0 {
			continue
		}
		off := len(arena)
		arena = append(arena, s.arena[sl.off:sl.off+sl.n&^pendingBit]...)
		sl.off = uint32(off)
	}
	s.arena, s.dead = arena, 0
}
