package shard

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/lang"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

func keyN(i uint64) packet.Key128 {
	var k packet.Key128
	binary.LittleEndian.PutUint64(k[:8], i)
	return k
}

func TestIndexRangeAndDeterminism(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 64} {
		for i := uint64(0); i < 1000; i++ {
			s := Index(keyN(i), n)
			if s < 0 || s >= n {
				t.Fatalf("Index(key%d, %d) = %d out of range", i, n, s)
			}
			if s2 := Index(keyN(i), n); s2 != s {
				t.Fatalf("Index not deterministic: %d then %d", s, s2)
			}
		}
	}
}

func TestIndexBalance(t *testing.T) {
	const n, keys = 8, 100_000
	counts := make([]int, n)
	for i := uint64(0); i < keys; i++ {
		counts[Index(keyN(i), n)]++
	}
	for s, c := range counts {
		frac := float64(c) / keys
		if frac < 0.10 || frac > 0.15 {
			t.Errorf("shard %d holds %.3f of keys (want ~0.125)", s, frac)
		}
	}
}

// TestIndexIndependentOfBucketBits guards the correlation hazard: the
// cache indexes buckets with the LOW bits of Key128.Hash, so keys
// co-resident on one shard must still spread over all cache buckets.
func TestIndexIndependentOfBucketBits(t *testing.T) {
	const n = 8
	const buckets = 64 // tiny pow2 bucket count; mask = low 6 bits
	seen := map[uint64]bool{}
	for i := uint64(0); i < 50_000; i++ {
		k := keyN(i)
		if Index(k, n) != 3 {
			continue
		}
		seen[k.Hash()&(buckets-1)] = true
	}
	if len(seen) < buckets {
		t.Fatalf("shard 3's keys reach only %d/%d cache buckets", len(seen), buckets)
	}
}

// routeTrace builds records with two independent keys: the flow 5-tuple
// and the queue id.
func routeTrace(n int) []trace.Record {
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			SrcIP:   packet.Addr4{10, 0, byte(i >> 8), byte(i % 37)},
			DstIP:   packet.Addr4{10, 1, 0, byte(i % 11)},
			SrcPort: uint16(1000 + i%97),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
			QID:     trace.MakeQueueID(uint16(i%5), uint16(i%3)),
			PktUniq: uint64(i),
		}
	}
	return recs
}

// perRecord adapts a per-record callback to a BatchFunc.
func perRecord(fn func(s int, rec *trace.Record, mask uint64)) BatchFunc {
	return func(s int, b *Batch) {
		for i := range b.Recs {
			fn(s, &b.Recs[i], b.Masks[i])
		}
	}
}

func flowKey(rec *trace.Record) packet.Key128 { return rec.FlowKey().Pack() }

func qidKey(rec *trace.Record) packet.Key128 {
	var k packet.Key128
	binary.LittleEndian.PutUint32(k[:4], uint32(rec.QID))
	return k
}

// TestPoolRouting checks the full contract: every keyed target processed
// exactly once, on the shard its key hashes to, in arrival order; the
// free target processed exactly once per record somewhere.
func TestPoolRouting(t *testing.T) {
	const n = 4
	recs := routeTrace(10_000)
	type hit struct {
		uniq   uint64
		target int
	}
	perShard := make([][]hit, n) // appended only by the owning worker
	cfg := Config{
		Shards:   n,
		Batch:    64,
		Keys:     []KeyFunc{flowKey, qidKey},
		FreeMask: 1 << 2,
	}
	pool := NewPool(cfg, perRecord(func(s int, rec *trace.Record, mask uint64) {
		for bit := 0; bit < 3; bit++ {
			if mask&(1<<uint(bit)) != 0 {
				perShard[s] = append(perShard[s], hit{rec.PktUniq, bit})
			}
		}
	}))
	pool.Feed(recs)
	pool.Close()
	if got := pool.Fed(); got != uint64(len(recs)) {
		t.Fatalf("Fed = %d, want %d", got, len(recs))
	}

	seen := map[hit]int{}
	for s := 0; s < n; s++ {
		lastUniq := make([]int64, 3)
		for i := range lastUniq {
			lastUniq[i] = -1
		}
		for _, h := range perShard[s] {
			seen[h]++
			if h.target < 2 {
				// Keyed targets land on the hash-owning shard.
				key := flowKey(&recs[h.uniq])
				if h.target == 1 {
					key = qidKey(&recs[h.uniq])
				}
				if want := Index(key, n); want != s {
					t.Fatalf("target %d of record %d on shard %d, want %d", h.target, h.uniq, s, want)
				}
			}
			// Arrival order preserved per (shard, target).
			if int64(h.uniq) <= lastUniq[h.target] {
				t.Fatalf("shard %d target %d out of order: %d after %d", s, h.target, h.uniq, lastUniq[h.target])
			}
			lastUniq[h.target] = int64(h.uniq)
		}
	}
	for i := range recs {
		for target := 0; target < 3; target++ {
			if c := seen[hit{uint64(i), target}]; c != 1 {
				t.Fatalf("record %d target %d processed %d times", i, target, c)
			}
		}
	}
}

// TestPoolPartialBatchFlush ensures records below one batch still arrive
// after Close.
func TestPoolPartialBatchFlush(t *testing.T) {
	var processed atomic.Uint64
	pool := NewPool(Config{Shards: 3, Batch: 256, Keys: []KeyFunc{flowKey}},
		perRecord(func(s int, rec *trace.Record, mask uint64) { processed.Add(1) }))
	recs := routeTrace(10)
	pool.Feed(recs)
	pool.Close()
	if processed.Load() != 10 {
		t.Fatalf("processed %d of 10 records", processed.Load())
	}
}

// TestRunStreamsSource covers the Run convenience wrapper.
func TestRunStreamsSource(t *testing.T) {
	recs := routeTrace(1000)
	var processed atomic.Uint64
	fed, err := Run(Config{Shards: 2, Keys: []KeyFunc{flowKey}},
		&trace.SliceSource{Records: recs},
		perRecord(func(s int, rec *trace.Record, mask uint64) { processed.Add(1) }))
	if err != nil {
		t.Fatal(err)
	}
	if fed != 1000 || processed.Load() != 1000 {
		t.Fatalf("fed %d processed %d, want 1000/1000", fed, processed.Load())
	}
}

// TestSingleShardDegenerate pins the n=1 fast path: everything routes to
// shard 0 with all target bits.
func TestSingleShardDegenerate(t *testing.T) {
	recs := routeTrace(100)
	pool := NewPool(Config{Shards: 1, Keys: []KeyFunc{flowKey, qidKey}, FreeMask: 1 << 2},
		perRecord(func(s int, rec *trace.Record, mask uint64) {
			if s != 0 {
				t.Errorf("record on shard %d", s)
			}
			if mask != 0b111 {
				t.Errorf("mask = %b, want 111", mask)
			}
		}))
	pool.Feed(recs)
	pool.Close()
}

// TestPoolBarrier covers the window-boundary synchronization: after
// Barrier every record fed so far must have been processed, the pool
// must remain usable for further feeding, and repeated barriers (with
// and without intervening records, including empty ones back-to-back)
// must not deadlock or double-count.
func TestPoolBarrier(t *testing.T) {
	var processed atomic.Uint64
	pool := NewPool(Config{Shards: 4, Batch: 64, Keys: []KeyFunc{flowKey}},
		perRecord(func(s int, rec *trace.Record, mask uint64) { processed.Add(1) }))
	recs := routeTrace(5000)

	fed := 0
	for _, chunk := range []int{1700, 0, 1300, 2000} {
		pool.Feed(recs[fed : fed+chunk])
		fed += chunk
		pool.Barrier()
		if got := processed.Load(); got != uint64(fed) {
			t.Fatalf("after barrier at %d fed: processed %d", fed, got)
		}
	}
	pool.Barrier() // idle barrier
	pool.Close()
	if processed.Load() != uint64(len(recs)) {
		t.Fatalf("processed %d of %d", processed.Load(), len(recs))
	}
}

// TestSplitMatchesPool pins the inline router to the pool's: Split puts
// every record on the same shards, with the same masks, in the same
// per-shard order as the worker pool delivers them, and carries the
// upstream span column through.
func TestSplitMatchesPool(t *testing.T) {
	const n = 3
	recs := routeTrace(2000)
	cfg := Config{Shards: n, Batch: 64, Keys: []KeyFunc{flowKey, qidKey}, FreeMask: 1 << 2}
	type item struct {
		uniq uint64
		mask uint64
	}
	want := make([][]item, n)
	pool := NewPool(cfg, perRecord(func(s int, rec *trace.Record, mask uint64) {
		want[s] = append(want[s], item{rec.PktUniq, mask})
	}))
	pool.Feed(recs)
	pool.Close()

	spans := make([]obs.SpanRef, len(recs))
	out := NewBatches(n, 0, true)
	NewRouter(cfg).Split(recs, spans, out)
	for s := range out {
		b := &out[s]
		if len(b.Masks) != b.Len() || len(b.Spans) != b.Len() {
			t.Fatalf("shard %d: %d recs, %d masks, %d spans", s, b.Len(), len(b.Masks), len(b.Spans))
		}
		if b.Len() != len(want[s]) {
			t.Fatalf("shard %d: Split routed %d records, pool %d", s, b.Len(), len(want[s]))
		}
		for i := range b.Recs {
			if got := (item{b.Recs[i].PktUniq, b.Masks[i]}); got != want[s][i] {
				t.Fatalf("shard %d record %d: Split %+v, pool %+v", s, i, got, want[s][i])
			}
		}
	}
}

// BenchmarkRoute measures the router's per-record cost on the sharded
// datapath's feed path — key hash, shard mask, and the push into the
// per-shard batch columns — the ledger line that bounds sharded
// scaling from the feeder's side. One op is one record.
func BenchmarkRoute(b *testing.B) {
	recs := routeTrace(DefaultBatch)
	// The datapath's partition key for a GROUPBY 5tuple program.
	chk, err := lang.Check(lang.MustParse("SELECT COUNT GROUPBY 5tuple"))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		b.Fatal(err)
	}
	key := plan.Programs[0].Key.Of
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("shards-%d", n), func(b *testing.B) {
			r := NewRouter(Config{Shards: n, Keys: []KeyFunc{key}})
			out := NewBatches(n, DefaultBatch, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += len(recs) {
				for s := range out {
					out[s].Reset()
				}
				r.Split(recs, nil, out)
			}
		})
	}
}
