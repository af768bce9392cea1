package kvstore

import (
	"math/rand"
	"testing"

	"perfq/internal/fold"
	"perfq/internal/packet"
)

// fullScanOrder is the flush oracle: the eviction sequence of a scan over
// every bucket in ascending order, each bucket's entries in recency order
// — what Flush produced before it walked the occupancy bitmap.
func fullScanOrder(c *setAssoc) (keys []packet.Key128, states []float64) {
	for b := 0; b < c.geom.Buckets; b++ {
		base := b * c.ways
		for i := 0; i < int(c.fill[b]); i++ {
			var slotIdx uint8
			if c.packed8 {
				slotIdx = uint8(c.metaOrd[b] >> (8 * uint(i)))
			} else {
				slotIdx = c.order[base+i]
			}
			keys = append(keys, c.slotKey(base+int(slotIdx)))
			states = append(states, c.slotState(base + int(slotIdx))[0])
		}
	}
	return keys, states
}

// TestFlushBitmapMatchesFullScan pins the bitmap Flush to the full-scan
// eviction sequence on both metadata layouts (ways ≤ 8 packed, ways > 8
// byte arrays), across an empty flush and flush → refill → flush cycles
// whose refills touch different bucket subsets.
func TestFlushBitmapMatchesFullScan(t *testing.T) {
	for _, g := range []Geometry{
		SetAssociative(1<<12, 8),    // packed8
		SetAssociative(1<<12, 4),    // packed8, fewer ways
		SetAssociative(1<<12, 16),   // byte-array metadata
		{Buckets: 100, Ways: 2},     // rounded up to 128 buckets
		{Buckets: 1 << 10, Ways: 9}, // smallest byte-array layout
	} {
		var got []packet.Key128
		var gotState []float64
		cc := mustNew(t, Config{
			Geometry: g, Fold: fold.Count(),
			OnEvict: func(ev *Eviction) {
				if ev.Reason == EvictFlush {
					got = append(got, ev.Key)
					gotState = append(gotState, ev.State[0])
				}
			},
		})
		c := cc.(*setAssoc)
		rng := rand.New(rand.NewSource(int64(g.Buckets*31 + g.Ways)))
		for round, nkeys := range []int{0, 300, 5, 0, 2000, 1} {
			for i := 0; i < 4*nkeys; i++ {
				k := keyN(round<<20 | rng.Intn(nkeys))
				c.Process(k, inputN(i))
			}
			wantOrder, wantState := fullScanOrder(c)
			got, gotState = got[:0], gotState[:0]
			c.Flush()
			if len(got) != len(wantOrder) {
				t.Fatalf("%v round %d: flushed %d keys, want %d", g, round, len(got), len(wantOrder))
			}
			for i := range got {
				if got[i] != wantOrder[i] {
					t.Fatalf("%v round %d: flush %d = %v, want %v", g, round, i, got[i], wantOrder[i])
				}
				if gotState[i] != wantState[i] {
					t.Fatalf("%v round %d: flush %d state %v, want %v", g, round, i, gotState[i], wantState[i])
				}
			}
			if c.Len() != 0 {
				t.Fatalf("%v round %d: Len after flush = %d", g, round, c.Len())
			}
			for w, word := range c.occ {
				if word != 0 {
					t.Fatalf("%v round %d: occupancy word %d = %#x after flush", g, round, w, word)
				}
			}
		}
	}
}

// BenchmarkFlushSparse times one window close's cache flush when the
// window touched few keys: 256 resident keys in the paper's default
// 2^18-pair 8-way cache (2^15 buckets). The refill runs outside the
// timer, so ns/op is the flush alone.
func BenchmarkFlushSparse(b *testing.B) {
	cc, _ := New(Config{Geometry: SetAssociative(1<<18, 8), Fold: fold.Count(),
		OnEvict: func(*Eviction) {}})
	keys := make([]packet.Key128, 256)
	for i := range keys {
		keys[i] = keyN(i)
	}
	in := inputN(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for _, k := range keys {
			cc.Process(k, in)
		}
		b.StartTimer()
		cc.Flush()
	}
}
