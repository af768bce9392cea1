package perfq

import (
	"fmt"
	"testing"
	"time"
)

// TestBackingPoolEndToEnd runs a query with its evictions mirrored into
// a two-backend pool and checks the books: every datapath eviction is
// offered, acked, applied by exactly one backend, and nothing dropped.
func TestBackingPoolEndToEnd(t *testing.T) {
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	cluster, err := q.ServeBackingStores(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	pool, err := q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{QueueDepth: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	res, err := q.Run(DCTrace(4, 2*time.Second), WithCache(128, 8), WithBackingPool(pool))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("tiny cache produced no evictions; nothing exercised the pool")
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := pool.DroppedEvictions(); d != 0 {
		t.Fatalf("healthy pool dropped %d evictions", d)
	}
	for i, h := range pool.Healthy() {
		if !h {
			t.Fatalf("backend %d unhealthy after a clean run", i)
		}
	}
	var applied, stored uint64
	for _, bs := range pool.Stats() {
		if !bs.Reachable {
			t.Fatalf("backend %s unreachable for stats", bs.Addr)
		}
		applied += bs.Server.Applied()
		stored += bs.Server.Keys
	}
	if want := res.Evictions + res.Flushed; applied != want {
		t.Fatalf("backends applied %d evictions, datapath emitted %d", applied, want)
	}
	if stored == 0 {
		t.Fatal("no keys landed in the backing tier")
	}
}

// TestBackingPoolWithShards: the eviction callbacks fire from
// concurrent shard workers; the pool must keep exact books anyway.
func TestBackingPoolWithShards(t *testing.T) {
	checkPoolBooks(t, WithShards(2))
}

// TestBackingPoolWindowedBooks: every window close flushes the caches
// into the pool, so a windowed run's Evictions + Flushed must still be
// exactly what the backends applied.
func TestBackingPoolWindowedBooks(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			res := checkPoolBooks(t, WithShards(shards), WithWindow(WindowSpec{Count: 5000}))
			if res.WindowCount() < 2 || res.Flushed == 0 {
				t.Fatalf("%d windows, %d flushed: the run never closed a window mid-stream",
					res.WindowCount(), res.Flushed)
			}
		})
	}
}

// checkPoolBooks runs COUNT GROUPBY 5tuple over a DC trace through a
// tiny cache with its evictions mirrored into a two-backend pool, and
// checks the books: nothing dropped, and the backends applied exactly
// the Evictions + Flushed the run reports.
func checkPoolBooks(t *testing.T, opts ...RunOption) *Results {
	t.Helper()
	q := MustCompile("SELECT COUNT GROUPBY 5tuple")
	cluster, err := q.ServeBackingStores(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	pool, err := q.DialBackingPool(cluster.Addrs(), BackingPoolConfig{QueueDepth: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	res, err := q.Run(DCTrace(4, 2*time.Second),
		append([]RunOption{WithCache(128, 8), WithBackingPool(pool)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	if d := pool.DroppedEvictions(); d != 0 {
		t.Fatalf("healthy pool dropped %d evictions", d)
	}
	var applied uint64
	for _, bs := range pool.Stats() {
		applied += bs.Server.Applied()
	}
	if want := res.Evictions + res.Flushed; applied != want {
		t.Fatalf("backends applied %d evictions, datapath emitted %d", applied, want)
	}
	return res
}
