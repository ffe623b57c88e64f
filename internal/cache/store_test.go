package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestStoreHitMissAndRecency(t *testing.T) {
	// One shard: the eviction assertions below rely on exact whole-store
	// LRU order, which the sharded default only guarantees per shard.
	s := NewStoreSharded(2, 1)
	compute := func(v int) func() (any, error) {
		return func() (any, error) { return v, nil }
	}
	if v, hit, _ := s.Do("a", compute(1)); hit || v.(int) != 1 {
		t.Fatalf("first Do(a) = (%v, hit=%v), want (1, miss)", v, hit)
	}
	if v, hit, _ := s.Do("a", compute(99)); !hit || v.(int) != 1 {
		t.Fatalf("second Do(a) = (%v, hit=%v), want cached (1, hit)", v, hit)
	}
	s.Do("b", compute(2))
	s.Do("a", compute(0)) // refresh a's recency
	s.Do("c", compute(3)) // evicts b, the least recently used
	if _, ok := s.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	if _, ok := s.Get("a"); !ok {
		t.Fatal("recently-used a was evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction, 2 entries", st)
	}
}

func TestStoreErrorsAreNotCached(t *testing.T) {
	s := NewStore(4)
	boom := errors.New("boom")
	calls := 0
	f := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := s.Do("k", f); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := s.Do("k", f)
	if err != nil || hit || v.(string) != "ok" {
		t.Fatalf("retry = (%v, hit=%v, err=%v), want fresh ok", v, hit, err)
	}
	if calls != 2 {
		t.Fatalf("compute ran %d times, want 2", calls)
	}
}

// TestStoreSingleFlightStampede floods one key from many goroutines while
// the first computation is deliberately held open, and asserts exactly one
// compute ran with every other request coalescing onto it.
func TestStoreSingleFlightStampede(t *testing.T) {
	const waiters = 100
	s := NewStore(8)
	gate := make(chan struct{})
	var computes atomic.Int64

	results := make(chan int, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.Do("stampede", func() (any, error) {
				computes.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results <- v.(int)
		}()
	}
	// Release the gate only once every other goroutine has either become
	// the computing call or registered as coalesced, so the stampede is a
	// true stampede and not a sequence of cache hits.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Misses+st.Coalesced == waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stampede never converged: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(results)

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times under stampede, want exactly 1", got)
	}
	for v := range results {
		if v != 42 {
			t.Fatalf("waiter got %d, want 42", v)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Coalesced != waiters-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d coalesced", st, waiters-1)
	}
}

func TestStoreCapacityFloor(t *testing.T) {
	s := NewStore(0) // clamped to 1
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		s.Do(k, func() (any, error) { return i, nil })
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

func TestStoreShardingPartitionsCapacity(t *testing.T) {
	s := NewStoreSharded(256, 4)
	if got := s.Shards(); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	// Every shard gets at least its fair share (so a balanced working
	// set that fits the store never evicts), at most fair share plus the
	// documented ~1/3 skew headroom.
	for _, sh := range s.shards {
		if sh.capacity < 64 || sh.capacity > 64+22 {
			t.Fatalf("shard capacity %d outside [64, 86]", sh.capacity)
		}
	}
	// A single-shard store bounds exactly: no skew, no headroom.
	one := NewStoreSharded(10, 1)
	if one.shards[0].capacity != 10 {
		t.Fatalf("single shard capacity = %d, want exactly 10", one.shards[0].capacity)
	}
	// Tiny capacities clamp the shard count so no shard is zero-sized.
	if got := NewStoreSharded(3, 16).Shards(); got != 3 {
		t.Fatalf("capacity 3: shards = %d, want 3", got)
	}
	if got := NewStoreSharded(1, 0).Shards(); got != 1 {
		t.Fatalf("capacity 1: shards = %d, want 1", got)
	}
	// The default constructor keeps shards ≥ 64 entries: a 256-entry
	// store must not fragment into 16-entry slivers that evict under
	// hash skew while the store as a whole has room.
	if got := NewStore(256).Shards(); got > 4 {
		t.Fatalf("NewStore(256) uses %d shards, want ≤ 4", got)
	}
	// Below 64 entries the default constructor keeps a single shard.
	for _, c := range []int{1, 32, 63} {
		if got := NewStore(c).Shards(); got != 1 {
			t.Fatalf("NewStore(%d) uses %d shards, want 1", c, got)
		}
	}
}

// TestStoreShardedFullWorkingSetDoesNotThrash loads exactly capacity
// many keys and re-touches them all: the skew headroom must absorb the
// uneven hash spread so a working set that fits the store keeps
// hitting, instead of hot shards evicting while cold shards sit empty.
func TestStoreShardedFullWorkingSetDoesNotThrash(t *testing.T) {
	const capacity = 256
	s := NewStoreSharded(capacity, 4)
	keys := make([]string, capacity)
	for i := range keys {
		keys[i] = fmt.Sprintf("n=%d;d=k%d", i+3, 1+i%3)
		s.Put(keys[i], i)
	}
	for _, k := range keys {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %q evicted although the working set equals the capacity", k)
		}
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("%d evictions for a capacity-sized working set", st.Evictions)
	}
}

// TestStoreShardedKeysLandOnOneShard pins the shard-routing invariant the
// single-flight semantics depend on: every operation for one key uses one
// shard, so a Do and a Get for the same key can never disagree.
func TestStoreShardedKeysLandOnOneShard(t *testing.T) {
	s := NewStore(64)
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		if s.shard(key) != s.shard(key) {
			t.Fatalf("key %q routed to two shards", key)
		}
		s.Put(key, i)
		v, ok := s.Get(key)
		if !ok || v.(int) != i {
			t.Fatalf("Get(%q) = (%v, %v) after Put", key, v, ok)
		}
	}
	if s.Len() != 50 {
		t.Fatalf("len = %d, want 50", s.Len())
	}
}

// TestStoreShardedConcurrentMixedTraffic hammers a sharded store from
// many goroutines with overlapping keys — warm hits, cold misses and
// single-flight joins all interleaved — and then checks the aggregate
// accounting. Run under -race this is the shard-locking correctness test.
func TestStoreShardedConcurrentMixedTraffic(t *testing.T) {
	const (
		goroutines = 32
		keys       = 40
		rounds     = 50
	)
	// Per-shard capacity must cover every key (keys hash unevenly across
	// shards), or a skewed shard would evict and break the checks below.
	s := NewStoreSharded(keys*8, 8)
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("key-%d", (g+r)%keys)
				v, _, err := s.Do(k, func() (any, error) {
					computes.Add(1)
					return k, nil
				})
				if err != nil || v.(string) != k {
					t.Errorf("Do(%q) = (%v, %v)", k, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := s.Stats()
	total := st.Hits + st.Misses + st.Coalesced
	if total != goroutines*rounds {
		t.Fatalf("hits+misses+coalesced = %d, want %d (stats %+v)", total, goroutines*rounds, st)
	}
	if st.Misses != uint64(computes.Load()) {
		t.Fatalf("misses = %d but computes = %d", st.Misses, computes.Load())
	}
	// Capacity covers every key, so nothing should have been evicted and
	// every key must be resident.
	if st.Evictions != 0 || s.Len() != keys {
		t.Fatalf("evictions = %d, len = %d; want 0 and %d", st.Evictions, s.Len(), keys)
	}
}

// TestStoreShardedSingleFlight re-runs the stampede check against the
// sharded store: one key, many concurrent callers, exactly one compute.
func TestStoreShardedSingleFlight(t *testing.T) {
	const waiters = 64
	s := NewStore(DefaultCapacity)
	gate := make(chan struct{})
	var computes atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := s.Do("hot", func() (any, error) {
				computes.Add(1)
				<-gate
				return 7, nil
			})
			if err != nil || v.(int) != 7 {
				t.Errorf("Do = (%v, %v)", v, err)
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := s.Stats()
		if st.Misses+st.Coalesced == waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stampede never converged: %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
}
