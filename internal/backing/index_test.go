package backing

import (
	"math/rand"
	"sort"
	"testing"

	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// flushOrderKeys returns n distinct keys in the order a set-associative
// cache of buckets buckets flushes them — sorted by the bucket bits
// Hash() & (buckets-1) — or, with random set, shuffled.
func flushOrderKeys(n, buckets int, random bool) []packet.Key128 {
	keys := make([]packet.Key128, n)
	for i := range keys {
		keys[i] = keyN(i)
	}
	if random {
		rand.New(rand.NewSource(17)).Shuffle(n, func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return keys
	}
	mask := uint64(buckets - 1)
	sort.SliceStable(keys, func(i, j int) bool { return keys[i].Hash()&mask < keys[j].Hash()&mask })
	return keys
}

// meanDisplacement is the mean distance, in slots, of every stored key
// from its home slot: the extra probes a lookup of it costs.
func meanDisplacement(ix *keyIndex) float64 {
	var sum, n uint64
	for i, v := range ix.slots {
		if v != 0 {
			sum += (uint64(i) - ix.home(ix.keys[i])) & ix.mask
			n++
		}
	}
	return float64(sum) / float64(n)
}

// TestIndexFlushOrderDisplacement pins the index against the cache's
// flush order. A bulk flush hands keys over sorted by the cache's
// bucket bits; an index homing keys on those same bits packs them into
// one cluster that grows with every insert until the table outgrows the
// bucket count. Probe chains must stay short in that order as in a
// random one, at every table size: the mean displacement is checked
// whenever the table reaches its 3/4 growth threshold, and at the end.
// Tables below minCheckSlots are skipped: a mean over a few hundred keys
// is noisy (random order reads 2.3 at 256 slots against 1.5 expected at
// load 3/4), and the clustering shows from 4096 slots up to twice the
// bucket count.
func TestIndexFlushOrderDisplacement(t *testing.T) {
	const nkeys, buckets, minCheckSlots = 1 << 17, 1 << 15, 1 << 12
	for _, tc := range []struct {
		name   string
		random bool
	}{{"bucket-order", false}, {"random-order", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var ix keyIndex
			check := func() {
				if d := meanDisplacement(&ix); d > 2 {
					t.Fatalf("%d keys in %d slots: mean displacement %.1f slots, want <= 2", ix.used, len(ix.slots), d)
				}
			}
			for i, k := range flushOrderKeys(nkeys, buckets, tc.random) {
				ix.put(k, int32(i))
				if n := len(ix.slots); n >= minCheckSlots && ix.used == n-(n>>2) {
					check()
				}
			}
			check()
			for i, k := range flushOrderKeys(nkeys, buckets, tc.random) {
				if got, ok := ix.get(k); !ok || got != int32(i) {
					t.Fatalf("get(key %d) = %d, %v", i, got, ok)
				}
			}
		})
	}
}

// BenchmarkFlushBucketOrder times the end-of-run flush of a default-size
// cache (2^18 pairs, 8-way) holding flushKeys keys into an empty backing
// store — the bucket-ordered bulk merge that ends a single-window run.
// Refilling the cache and building the store are untimed; ns/key is the
// flush time per key.
func BenchmarkFlushBucketOrder(b *testing.B) {
	const flushKeys = 77842
	lat := fold.Bin{Op: fold.OpSub, L: fold.FieldRef(trace.FieldTout), R: fold.FieldRef(trace.FieldTin)}
	f := fold.Ewma(lat, 0.125)
	var store *Store
	cache, err := kvstore.New(kvstore.Config{
		Geometry:   kvstore.SetAssociative(1<<18, 8),
		Fold:       f,
		ExactMerge: true,
		OnEvict:    func(ev *kvstore.Eviction) { store.HandleEviction(ev) },
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	recs := make([]*trace.Record, 256)
	for i := range recs {
		recs[i] = randomRec(rng)
	}
	var in fold.Input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store = New(f)
		for k := 0; k < flushKeys; k++ {
			in.Rec = recs[k%len(recs)]
			cache.Process(keyN(k), &in)
		}
		b.StartTimer()
		cache.Flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*flushKeys), "ns/key")
}
