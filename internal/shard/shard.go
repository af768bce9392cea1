// Package shard implements the sharded parallel datapath fabric: it
// hash-partitions a record stream by grouping key across N workers, each
// of which owns an independent slice of per-program state (cache +
// backing store, or a ground-truth engine). Because every record of a
// given key is routed to the same worker, per-shard result tables are
// disjoint and the merged output is a plain concatenation — sharding is
// invisible in the final sorted tables.
//
// A plan can hold several switch programs with different GROUPBY keys, so
// one record may belong to different shards for different programs. The
// router therefore computes one shard index per keyed target and delivers
// the record to each chosen shard tagged with a bitmask of the targets
// that shard owns for it. Order-insensitive targets (plain SELECTs over
// T, whose output is a multiset that is sorted at materialization) carry
// no key and are spread round-robin for load balance.
//
// Records move through bounded per-shard SPSC rings of batch slots
// (Config.Batch records per slot, default 256) so the synchronization
// cost per record is a fraction of two atomic counter updates. A single
// feeder preserves arrival order within each shard, which keeps per-key
// update order — and therefore every fold's state trajectory — identical
// to the serial datapath.
package shard

import (
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// DefaultBatch is the number of records per ring slot. 256 amortizes
// the publish/park synchronization to well under a nanosecond per
// record while keeping per-shard buffering (batch × ringDepth × record
// size) within the L2 working set; see the transport batch sweep in
// EXPERIMENTS.md.
const DefaultBatch = 256

// MaxTargets bounds the number of routing targets (bits in Item.Mask).
const MaxTargets = 64

// KeyFunc extracts the partition key one target groups records by.
type KeyFunc func(*trace.Record) packet.Key128

// BatchFunc consumes one routed batch on a worker goroutine: b.Masks[i]
// has bit t set when this shard owns target t for b.Recs[i]. It is
// called from exactly one goroutine per shard value, and b is valid only
// for the duration of the call.
type BatchFunc func(shard int, b *Batch)

// Config describes a routing domain.
type Config struct {
	// Shards is the worker count; values < 1 mean 1.
	Shards int
	// Batch is the records-per-send granularity; 0 selects DefaultBatch.
	Batch int
	// Keys lists the distinct partition-key extractors. Targets that
	// group by the same key share one entry, so each record's key (and
	// its hash) is computed once per distinct key, not once per target.
	Keys []KeyFunc
	// Targets maps each key-partitioned target t (mask bit t) to its
	// entry in Keys. nil means the identity mapping: target t partitions
	// by Keys[t].
	Targets []int
	// FreeMask is OR-ed into one round-robin-chosen shard's mask for
	// every record — the bits of order-insensitive targets.
	FreeMask uint64

	// Obs, when non-nil (sized for Shards workers), instruments the
	// ring transport: batch-size histogram, park/wake counts. Nil means
	// fully uninstrumented (one nil branch per batch).
	Obs *obs.TransportMetrics
	// AfterBatch, when non-nil, runs on the worker goroutine after each
	// consumed batch — the datapath's hook for publishing its plain
	// per-shard counters into atomic mirrors at batch granularity.
	AfterBatch func(worker int)

	// Trace, when non-nil, samples records at the Pool's router: a
	// record whose partition-key hash is selected begins a span
	// (HopRoute) that rides the batch's Spans column through the
	// transport. The router already hashes every key, so the sampling
	// test is one AND+compare per key group.
	Trace *obs.Tracer
}

// Index maps a partition key to a shard in [0, n). The key's Hash is
// re-avalanched with a distinct finalizer so the shard index stays
// independent of the cache's bucket index, which consumes the low bits
// of the same hash (correlated bits would confine each shard's keys to
// 1/n of its cache buckets).
func Index(key packet.Key128, n int) int {
	if n <= 1 {
		return 0
	}
	return indexHash(key.Hash(), n)
}

// indexHash is Index's finalizer on an already-computed key hash.
func indexHash(h uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 28
	return int(h % uint64(n))
}

// Router computes per-shard target masks for records — the one routing
// algorithm, shared by the batched Pool and inline (feederless) callers
// such as the datapath's routed block path (Split). A Router is not
// goroutine-safe; give each serial caller its own.
type Router struct {
	n       int
	keys    []KeyFunc
	targets []int
	idx     []int    // per-key shard index scratch
	masks   []uint64 // per-shard mask scratch of Split and Pool.Feed
	free    uint64
	rr      int

	// Sampling state for the record routed last (valid until the next
	// Route call). trMask is obs.NoSample when no tracer is attached.
	trMask  uint64
	sampKey packet.Key128
	sampled bool
}

// NewRouter builds a router from the routing-relevant Config fields.
func NewRouter(cfg Config) *Router {
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	targets := cfg.Targets
	if targets == nil {
		targets = make([]int, len(cfg.Keys))
		for t := range targets {
			targets[t] = t
		}
	}
	return &Router{
		n:       n,
		keys:    cfg.Keys,
		targets: targets,
		idx:     make([]int, len(cfg.Keys)),
		masks:   make([]uint64, n),
		free:    cfg.FreeMask,
		trMask:  cfg.Trace.HashMask(),
	}
}

// Shards returns the shard count records are routed across.
func (r *Router) Shards() int { return r.n }

// Route fills masks (which must have length Shards) with each shard's
// target bits for one record: one key extraction + hash per distinct
// key, then a mask update per target. Free targets advance the
// round-robin cursor, so route each record exactly once.
func (r *Router) Route(rec *trace.Record, masks []uint64) {
	for i := range masks {
		masks[i] = 0
	}
	if r.trMask == obs.NoSample {
		for k, kf := range r.keys {
			r.idx[k] = Index(kf(rec), r.n)
		}
	} else {
		// Tracing: reuse each key's hash for the sampling test — the
		// marked key (first sampled group) begins the record's span.
		r.sampled = false
		for k, kf := range r.keys {
			key := kf(rec)
			h := key.Hash()
			r.idx[k] = indexHash(h, r.n)
			if h&r.trMask == 0 && !r.sampled {
				r.sampled = true
				r.sampKey = key
			}
		}
	}
	for t, k := range r.targets {
		masks[r.idx[k]] |= 1 << uint(t)
	}
	if r.free != 0 {
		masks[r.rr] |= r.free
		r.rr++
		if r.rr == r.n {
			r.rr = 0
		}
	}
}

// SampledKey returns the key that marked the last routed record for
// tracing, if any. Valid until the next Route call.
func (r *Router) SampledKey() (packet.Key128, bool) {
	return r.sampKey, r.sampled
}

// Split routes recs inline, appending each record to the batch of every
// shard that owns a target for it (out has one batch per shard; the
// caller resets them). spans, when non-nil, is the records' upstream
// trace-span column, carried to every receiving shard.
func (r *Router) Split(recs []trace.Record, spans []obs.SpanRef, out []Batch) {
	m := r.masks
	for i := range recs {
		r.Route(&recs[i], m)
		var span obs.SpanRef
		if spans != nil {
			span = spans[i]
		}
		for s, mask := range m {
			if mask != 0 {
				out[s].Push(&recs[i], mask, span)
			}
		}
	}
}

// Pool routes records from a single feeder to per-shard worker
// goroutines (a Workers transport fed through the Router). Feed,
// Barrier and Close must be called from one goroutine.
type Pool struct {
	router  *Router
	workers *Workers
	fed     uint64
	tr      *obs.Tracer
}

// NewPool starts one worker goroutine per shard, each draining its ring
// of batches through process.
func NewPool(cfg Config, process BatchFunc) *Pool {
	router := NewRouter(cfg)
	p := &Pool{router: router, tr: cfg.Trace}
	after := cfg.AfterBatch
	consume := process
	if after != nil {
		consume = func(s int, b *Batch) {
			process(s, b)
			after(s)
		}
	}
	p.workers = NewWorkers(router.Shards(), cfg.Batch, cfg.Obs, cfg.Trace != nil, consume)
	return p
}

// Occupancy is the pool's current ring backlog in slots (racy gauge).
func (p *Pool) Occupancy() int { return p.workers.Occupancy() }

// Fed returns how many records have been routed so far.
func (p *Pool) Fed() uint64 { return p.fed }

// Feed routes a run of records, copying each into the pending batch of
// every shard that owns at least one target for it.
func (p *Pool) Feed(recs []trace.Record) {
	p.fed += uint64(len(recs))
	for i := range recs {
		rec := &recs[i]
		p.router.Route(rec, p.router.masks)
		var span obs.SpanRef
		if p.tr != nil {
			if key, ok := p.router.SampledKey(); ok {
				span = p.tr.Begin(0, key, obs.HopRoute, obs.OutcomeOK)
			}
		}
		for s, m := range p.router.masks {
			if m != 0 {
				p.workers.Feed(s, rec, m, span)
			}
		}
	}
}

// Barrier flushes every pending batch and blocks until all records fed
// so far have been processed by their workers. The pool stays usable —
// this is the window-boundary synchronization of the epoch runtime:
// every worker must have applied window k's records before the caller
// flushes caches and materializes window k's tables.
func (p *Pool) Barrier() { p.workers.Barrier() }

// Close flushes every pending batch, closes the channels and waits for
// all workers to drain. The pool must not be fed afterwards.
func (p *Pool) Close() { p.workers.Close() }

// Run streams an entire source through a fresh pool and waits for the
// workers to finish. It returns the number of records fed.
func Run(cfg Config, src trace.Source, process BatchFunc) (uint64, error) {
	p := NewPool(cfg, process)
	err := trace.Blocks(src, DefaultBatch, p.Feed)
	p.Close()
	return p.fed, err
}
