package cache

import (
	"container/list"
	"context"
	"runtime"
	"sync"

	"github.com/cyclecover/cyclecover/internal/construct"
)

// DefaultShards is the shard count selected by NewStore. It is sized to
// a small multiple of typical core counts so that concurrent warm hits —
// which take only the shard lock of their key — rarely contend, while
// keeping per-shard LRU books small enough to stay cache-friendly.
const DefaultShards = 16

// Store is a bounded memoization table: hash-partitioned shards, each an
// LRU map joined with a single-flight group. Do serves repeated keys
// from memory and collapses concurrent misses for one key onto a single
// computation. A key's shard is fixed by its hash, so all single-flight
// and LRU bookkeeping for it happens under one shard lock and warm-hit
// throughput scales with the number of shards rather than serializing on
// a store-global mutex. Errors are never cached — a failed computation
// is reported to every waiter and the next request retries.
//
// The capacity bound and the LRU policy are per shard: shard capacities
// carry skew headroom (see NewStoreSharded), so total residency may
// exceed the requested capacity by up to ~a third, and eviction order
// is least-recently-used within each shard, not globally.
type Store struct {
	shards []*storeShard
}

// storeShard is one lock domain of the store: an LRU list plus the
// in-flight calls for the keys that hash here.
type storeShard struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // most-recent first
	items    map[string]*list.Element // key → *entry element
	inflight map[string]*call
	stats    Stats
}

type entry struct {
	key string
	val any
}

// call is one in-flight computation. waiters counts the callers —
// originator included — currently blocked on it; a waiter whose context
// fires detaches (decrementing the count) without disturbing the entry,
// and only when the count reaches zero is the computation itself
// cancelled. Guarded by the shard mutex, except done/val/err which
// follow the close-after-write protocol (val and err are written, and
// done closed, under the shard lock; readers may select on done without
// the lock and then read val/err freely).
type call struct {
	done    chan struct{} // closed when val/err are final
	val     any
	err     error
	waiters int
	cancel  context.CancelFunc // cancels the computation's context
}

// Stats counts cache traffic. Hits are LRU hits; Coalesced are requests
// that joined an in-flight computation; Misses are computations actually
// run; Abandoned are waiters that detached (context fired) before their
// computation finished; Cancelled are computations aborted because their
// last waiter departed; Evictions are LRU removals.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Abandoned uint64 `json:"abandoned"`
	Cancelled uint64 `json:"cancelled"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// NewStore returns a store bounded to about capacity entries (capacity
// ≥ 1), partitioned into DefaultShards shards — fewer when core count
// or capacity is small (shards are kept ≥ 64 entries each, so small
// default stores do not fragment their capacity into skew-prone
// slivers).
func NewStore(capacity int) *Store {
	shards := DefaultShards
	if p := 2 * runtime.GOMAXPROCS(0); p < shards {
		shards = p
	}
	if c := capacity / 64; c < shards {
		// A store under 64 entries is one shard: 0 would select
		// DefaultShards and split it into slivers of a few entries.
		shards = max(c, 1)
	}
	return NewStoreSharded(capacity, shards)
}

// NewStoreSharded returns a store bounded to about capacity entries
// (capacity ≥ 1) partitioned into the given number of shards. shards
// ≤ 0 selects DefaultShards; shards is additionally clamped to capacity
// so every shard can hold at least one entry.
//
// With more than one shard the capacity is a target, not an exact
// bound: each shard holds its fair share plus a third of headroom
// (worst-case residency ≈ 4/3·capacity), because keys hash unevenly
// and an exactly-split shard would evict — and force recomputation of —
// entries of a working set that fits the store as a whole. A
// single-shard store (NewStoreSharded(capacity, 1)) bounds exactly and
// keeps strict global LRU order — the benchmark baseline and the right
// choice when whole-store recency matters more than concurrent
// throughput.
func NewStoreSharded(capacity, shards int) *Store {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > capacity {
		shards = capacity
	}
	perShard := (capacity + shards - 1) / shards
	if shards > 1 {
		perShard += (perShard + 2) / 3
	}
	s := &Store{shards: make([]*storeShard, shards)}
	for i := range s.shards {
		s.shards[i] = &storeShard{
			capacity: perShard,
			ll:       list.New(),
			items:    make(map[string]*list.Element),
			inflight: make(map[string]*call),
		}
	}
	return s
}

// shard returns the shard owning key: inline FNV-1a over the key bytes
// (no hasher allocation — this sits on every warm hit).
func (s *Store) shard(key string) *storeShard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return s.shards[h%uint32(len(s.shards))]
}

// Do returns the cached value for key, computing it with compute on a
// miss. hit reports whether the value was served without running compute
// in this call (an LRU hit, or a join onto another caller's in-flight
// computation). Successful results are inserted at the front of their
// shard's LRU.
func (s *Store) Do(key string, compute func() (any, error)) (val any, hit bool, err error) {
	return s.DoCtx(context.Background(), key, func(context.Context) (any, error) { return compute() })
}

// DoCtx is Do under a context, with detachable waiting: a caller whose
// ctx fires while the value is being computed returns ctx's error
// immediately — without poisoning or evicting anything — while the
// computation keeps running for the remaining waiters and still lands in
// the cache. The computation's own context (handed to compute) is
// cancelled only when the LAST waiter departs: at that point nobody
// wants the result, so the work is abandoned and the next request for
// the key starts fresh. Errors — including a cancelled computation's —
// are never cached.
func (s *Store) DoCtx(ctx context.Context, key string, compute func(context.Context) (any, error)) (val any, hit bool, err error) {
	sh := s.shard(key)
	sh.mu.Lock()
	if el, ok := sh.items[key]; ok {
		sh.ll.MoveToFront(el)
		sh.stats.Hits++
		v := el.Value.(*entry).val
		sh.mu.Unlock()
		return v, true, nil
	}
	if c, ok := sh.inflight[key]; ok {
		c.waiters++
		sh.stats.Coalesced++
		sh.mu.Unlock()
		return sh.wait(ctx, key, c, true)
	}
	// The computation must outlive this caller (other waiters may join),
	// so its context derives from Background, not ctx; ctx's cancellation
	// reaches it only through the last-waiter-departs rule below.
	cctx, cancel := context.WithCancel(context.Background())
	c := &call{done: make(chan struct{}), waiters: 1, cancel: cancel}
	sh.inflight[key] = c
	sh.stats.Misses++
	sh.mu.Unlock()

	go func() {
		v, err := runCompute(cctx, compute)
		cancel()
		sh.mu.Lock()
		c.val, c.err = v, err
		if sh.inflight[key] == c {
			delete(sh.inflight, key)
		}
		if err == nil {
			// Cache even if every waiter gave up: the value is computed
			// and deterministic for the key, so the next request hits.
			sh.add(key, v)
		}
		close(c.done) // under the lock: wait() rechecks done while holding it
		sh.mu.Unlock()
	}()
	return sh.wait(ctx, key, c, false)
}

// runCompute shields the store from a panicking computation: compute
// runs on an internal goroutine (so waiters can detach), where an
// unrecovered panic would kill the whole process and leave every waiter
// hung on a never-closed done channel. A panic becomes a fingerprinted
// *construct.PanicError — which the store refuses to cache, and which
// the serving layer counts per fingerprint — failing only this key's
// waiters.
func runCompute(ctx context.Context, compute func(context.Context) (any, error)) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = construct.Recovered("cache", r)
		}
	}()
	return compute(ctx)
}

// wait blocks until c finishes or ctx fires, detaching on the latter.
// joined reports whether this caller coalesced onto an existing call
// (it becomes the hit flag on success).
func (sh *storeShard) wait(ctx context.Context, key string, c *call, joined bool) (any, bool, error) {
	select {
	case <-c.done:
		return c.val, joined, c.err
	case <-ctx.Done():
	}
	sh.mu.Lock()
	select {
	case <-c.done:
		// The result landed while we were acquiring the lock; take it.
		sh.mu.Unlock()
		return c.val, joined, c.err
	default:
	}
	c.waiters--
	sh.stats.Abandoned++
	if c.waiters == 0 {
		// Last waiter departing: nobody wants the result. Cancel the
		// computation and clear the in-flight slot so a fresh request
		// starts over instead of joining a doomed call.
		if sh.inflight[key] == c {
			delete(sh.inflight, key)
		}
		sh.stats.Cancelled++
		c.cancel()
	}
	sh.mu.Unlock()
	return nil, false, ctx.Err()
}

// Put inserts a value directly, as if computed. Used by snapshot loading.
func (s *Store) Put(key string, val any) {
	sh := s.shard(key)
	sh.mu.Lock()
	sh.add(key, val)
	sh.mu.Unlock()
}

// Each calls f for every resident entry, shard by shard and from most to
// least recently used within each shard, holding that shard's lock:
// f must not call back into the store.
func (s *Store) Each(f func(key string, val any)) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for el := sh.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*entry)
			f(e.key, e.val)
		}
		sh.mu.Unlock()
	}
}

// Get returns the cached value without computing, refreshing recency.
func (s *Store) Get(key string) (any, bool) {
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.items[key]
	if !ok {
		return nil, false
	}
	sh.ll.MoveToFront(el)
	return el.Value.(*entry).val, true
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.ll.Len()
		sh.mu.Unlock()
	}
	return n
}

// Shards returns the number of shards (for introspection and tests).
func (s *Store) Shards() int { return len(s.shards) }

// Stats returns a snapshot of the counters, aggregated over all shards.
// Shards are snapshotted one at a time, so the aggregate is not a single
// atomic cut — fine for the monitoring counters it feeds.
func (s *Store) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st.Hits += sh.stats.Hits
		st.Misses += sh.stats.Misses
		st.Coalesced += sh.stats.Coalesced
		st.Abandoned += sh.stats.Abandoned
		st.Cancelled += sh.stats.Cancelled
		st.Evictions += sh.stats.Evictions
		st.Entries += sh.ll.Len()
		sh.mu.Unlock()
	}
	return st
}

// add inserts (or refreshes) key at the front of the shard's LRU,
// evicting the tail when the shard bound is exceeded. Caller holds sh.mu.
func (sh *storeShard) add(key string, val any) {
	if el, ok := sh.items[key]; ok {
		el.Value.(*entry).val = val
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[key] = sh.ll.PushFront(&entry{key: key, val: val})
	for sh.ll.Len() > sh.capacity {
		tail := sh.ll.Back()
		sh.ll.Remove(tail)
		delete(sh.items, tail.Value.(*entry).key)
		sh.stats.Evictions++
	}
}
