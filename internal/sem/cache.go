package sem

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
)

// CachedStore wraps a Store with a fixed-budget block cache. The paper's
// semi-external runs read edge lists through the OS page cache (16 GB of RAM
// against 9-136 GB of graph), and the visitor queues' secondary vertex-id
// sort exists precisely to raise that cache's hit rate by "semi-sorting
// access" (§IV-C). CachedStore makes the same mechanism explicit and
// measurable: device reads happen in aligned blocks, recently used blocks are
// kept under a byte budget, and hit/miss counters expose the locality the
// semi-sort buys.
type CachedStore struct {
	inner     Store
	blockSize int64
	size      int64 // backing size, for tail-block clamping
	maxBlock  int64 // number of device blocks
	readahead int   // blocks fetched per miss (>= 1)
	shards    []cacheShard

	// resident is a bitset over block ids: a set bit means the block is
	// cached or being fetched. It gives the prefetcher a residency answer
	// without taking shard locks on the hot path.
	resident []atomic.Uint64

	hits   atomic.Uint64
	misses atomic.Uint64
}

type cacheShard struct {
	mu       sync.Mutex
	capacity int // max cached blocks in this shard
	blocks   map[int64]*list.Element
	lru      *list.List // front = most recent; values are *cacheEntry
}

type cacheEntry struct {
	id    int64
	data  []byte
	ready chan struct{} // closed once data/err are set (singleflight)
	err   error
}

// Sizer is implemented by stores that know their total size (ssd.Device,
// os.File via a wrapper). CachedStore needs it to clamp the final block.
type Sizer interface{ Size() int64 }

// NewCachedStoreRA creates a block cache over inner with the given block
// size and total capacity in bytes; inner must implement Sizer. Each miss
// fetches `readahead` consecutive blocks (at least 1) in a single device
// operation, the way the OS page cache's readahead turns the semi-sorted
// edge sweep into large sequential transfers. One operation's latency is
// charged regardless of span; the extra bytes pay only the device's
// bandwidth term, matching sequential-transfer behaviour.
func NewCachedStoreRA(inner Store, blockSize int, capacityBytes int64, readahead int) (*CachedStore, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("sem: block size must be positive, got %d", blockSize)
	}
	if readahead < 1 {
		readahead = 1
	}
	szr, ok := inner.(Sizer)
	if !ok {
		return nil, fmt.Errorf("sem: cached store requires a store with a known size")
	}
	// Shard the lock only as far as the budget supports: a shard needs a
	// meaningful victim set (>= minShardBlocks) for recency to express a
	// preference. Splitting a small budget 16 ways leaves one block per
	// shard, and every install evicts the only other resident. Large budgets
	// keep the full shard count for lock spreading.
	const maxShards, minShardBlocks = 16, 32
	totalBlocks := capacityBytes / int64(blockSize)
	numShards := int(totalBlocks / minShardBlocks)
	if numShards > maxShards {
		numShards = maxShards
	}
	if numShards < 1 {
		numShards = 1
	}
	perShard := int(totalBlocks) / numShards
	if perShard < 1 {
		perShard = 1
	}
	c := &CachedStore{
		inner:     inner,
		blockSize: int64(blockSize),
		size:      szr.Size(),
		readahead: readahead,
		shards:    make([]cacheShard, numShards),
	}
	c.maxBlock = (c.size + c.blockSize - 1) / c.blockSize
	c.resident = make([]atomic.Uint64, (c.maxBlock+63)/64)
	for i := range c.shards {
		c.shards[i] = cacheShard{
			capacity: perShard,
			blocks:   make(map[int64]*list.Element),
			lru:      list.New(),
		}
	}
	return c, nil
}

// setResident / clearResident maintain the residency bitset.
func (c *CachedStore) setResident(id int64) {
	if id >= 0 && id < c.maxBlock {
		c.resident[id>>6].Or(1 << (uint(id) & 63))
	}
}

func (c *CachedStore) clearResident(id int64) {
	if id >= 0 && id < c.maxBlock {
		c.resident[id>>6].And(^uint64(1 << (uint(id) & 63)))
	}
}

// residentRange reports whether every block covering [off, off+n) is cached
// or already being fetched. The prefetcher uses it to drop extents from span
// formation: a fully resident extent is served by a synchronous cache hit at
// visit time, so putting it in a device span would re-read bytes the cache
// already holds. Lock-free bitset probes; an in-flight block counts as
// resident because the visit-time hit simply waits on that fetch.
//
//lint:hotpath
func (c *CachedStore) residentRange(off int64, n int) bool {
	if n <= 0 {
		return true
	}
	last := (off + int64(n) - 1) / c.blockSize
	for b := off / c.blockSize; b <= last; b++ {
		if b < 0 || b >= c.maxBlock {
			return false
		}
		if c.resident[b>>6].Load()&(1<<(uint(b)&63)) == 0 {
			return false
		}
	}
	return true
}

// Stats reports cache hits and misses (block granularity).
func (c *CachedStore) Stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// Size implements Sizer.
func (c *CachedStore) Size() int64 { return c.size }

func (c *CachedStore) shard(id int64) *cacheShard {
	return &c.shards[uint64(id)%uint64(len(c.shards))]
}

// install adds an in-flight placeholder for id to its shard, evicting
// entries past capacity. Returns (nil, existing) when id is already present.
func (c *CachedStore) install(id int64, entry *cacheEntry) (el *list.Element, existing *cacheEntry) {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if cur, ok := sh.blocks[id]; ok {
		sh.lru.MoveToFront(cur)
		return nil, cur.Value.(*cacheEntry)
	}
	el = sh.lru.PushFront(entry)
	sh.blocks[id] = el
	c.setResident(id)
	c.evictLocked(sh, el)
	return el, nil
}

// dropLocked removes one entry from the shard's list, map, and the residency
// bitset. Caller holds sh.mu.
func (c *CachedStore) dropLocked(sh *cacheShard, el *list.Element) {
	ent := el.Value.(*cacheEntry)
	sh.lru.Remove(el)
	delete(sh.blocks, ent.id)
	c.clearResident(ent.id)
}

// evictLocked brings the shard back under capacity in one batched
// back-to-front pass: exact LRU, oldest first, never evicting keep (the
// entry just installed). Caller holds sh.mu.
//
// Recency is the only order: a state-aware policy scoring blocks by pending
// visitors lost every sem-rmat pressure pair (-20% TEPS) and was removed
// (EXPERIMENTS.md).
func (c *CachedStore) evictLocked(sh *cacheShard, keep *list.Element) {
	over := sh.lru.Len() - sh.capacity
	for el := sh.lru.Back(); el != nil && over > 0; {
		prev := el.Prev()
		if el != keep {
			c.dropLocked(sh, el)
			over--
		}
		el = prev
	}
}

func (c *CachedStore) remove(id int64, el *list.Element) {
	sh := c.shard(id)
	sh.mu.Lock()
	if cur, ok := sh.blocks[id]; ok && cur == el {
		c.dropLocked(sh, el)
	}
	sh.mu.Unlock()
}

func (c *CachedStore) await(entry *cacheEntry) ([]byte, error) {
	<-entry.ready // no-op for completed entries
	if entry.err != nil {
		return nil, entry.err
	}
	c.hits.Add(1)
	return entry.data, nil
}

// block returns the cached contents of block id, fetching from the device on
// a miss. Concurrent misses on the same block share one device read
// (singleflight): with hundreds of visitors sweeping the same id range, the
// first requester fetches and the rest wait on the in-flight entry — without
// this, a cold block would be read once per waiting visitor. Each miss
// fetches up to `readahead` consecutive blocks in one device operation.
func (c *CachedStore) block(id int64) ([]byte, error) {
	sh := c.shard(id)
	sh.mu.Lock()
	if el, ok := sh.blocks[id]; ok {
		sh.lru.MoveToFront(el)
		entry := el.Value.(*cacheEntry)
		sh.mu.Unlock()
		return c.await(entry)
	}
	sh.mu.Unlock()

	if id >= c.maxBlock || id < 0 {
		return nil, fmt.Errorf("sem: cache read beyond device end (block %d)", id)
	}
	span := int64(c.readahead)
	if id+span > c.maxBlock {
		span = c.maxBlock - id
	}
	// Install placeholders for every absent block of the span. If block id
	// itself appears concurrently, another fetcher owns it: wait on theirs.
	type owned struct {
		id    int64
		el    *list.Element
		entry *cacheEntry
	}
	var mine []owned
	for k := int64(0); k < span; k++ {
		bid := id + k
		entry := &cacheEntry{id: bid, ready: make(chan struct{})}
		el, existing := c.install(bid, entry)
		if existing != nil {
			if k == 0 {
				return c.await(existing)
			}
			continue // already cached or being fetched by someone else
		}
		mine = append(mine, owned{id: bid, el: el, entry: entry})
	}
	c.misses.Add(1)

	// One device operation covers the whole span; extra blocks pay only the
	// bandwidth term, as with OS readahead.
	off := id * c.blockSize
	n := span * c.blockSize
	if off+n > c.size {
		n = c.size - off
	}
	data := make([]byte, n)
	_, err := c.inner.ReadAt(data, off)
	var out []byte
	for _, o := range mine {
		if err != nil {
			o.entry.err = err
			close(o.entry.ready)
			c.remove(o.id, o.el) // drop so later reads can retry
			continue
		}
		lo := (o.id - id) * c.blockSize
		hi := lo + c.blockSize
		if hi > n {
			hi = n
		}
		o.entry.data = data[lo:hi:hi]
		close(o.entry.ready)
		if o.id == id {
			out = o.entry.data
		}
	}
	if err != nil {
		return nil, err
	}
	if out == nil {
		// id was concurrently owned elsewhere and we fetched only trailing
		// blocks; fall back to the (now-present or refetchable) entry.
		return c.block(id)
	}
	return out, nil
}

// ReadAt implements Store, assembling the request from cached blocks.
func (c *CachedStore) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("sem: negative read offset %d", off)
	}
	read := 0
	for read < len(p) {
		pos := off + int64(read)
		id := pos / c.blockSize
		data, err := c.block(id)
		if err != nil {
			return read, err
		}
		inBlock := pos - id*c.blockSize
		if inBlock >= int64(len(data)) {
			return read, fmt.Errorf("sem: read past end of device at offset %d", pos)
		}
		read += copy(p[read:], data[inBlock:])
	}
	return read, nil
}
