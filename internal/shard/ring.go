package shard

import (
	"runtime"
	"sync/atomic"

	"perfq/internal/obs"
)

// This file is the transport under Workers: one bounded single-producer
// single-consumer ring per worker, carrying batch slots instead of
// channel sends. Channels lost on three counts (see DESIGN.md "The
// transport" for measurements): every send/receive takes the channel's
// internal mutex and copies the slice header through hchan, a parked
// receiver pays a full scheduler wakeup on every batch, and recycling
// buffers through a sync.Pool boxes a slice header per Put. The ring
// replaces all three with two padded atomic counters: the producer owns
// `tail`, the consumer owns `head`, a slot's buffer is reused in place
// once the consumer has moved past it (steady-state zero allocation),
// and both sides spin briefly before parking so the common
// producer-and-consumer-both-hot case never enters the scheduler.
const (
	// ringDepth is the number of batch slots per ring (power of two).
	// Depth × batch bounds per-worker buffering, and at GOMAXPROCS=1 it
	// sets the handoff granularity: the producer fills the whole ring
	// before yielding, so larger depth means fewer scheduler round trips.
	ringDepth = 8

	// spinTight / spinYield bound the two waiting phases: a handful of
	// raw re-checks (the counterpart is mid-update on another core),
	// then cooperative yields (it is runnable but not scheduled — the
	// whole story at GOMAXPROCS=1), then a real park on a channel.
	spinTight = 16
	spinYield = 64
)

// Slot kinds. Barrier and close ride the ring as sentinel slots so they
// order with data exactly like the nil-batch token did on channels.
const (
	slotBatch uint8 = iota
	slotBarrier
	slotClose
)

type slot struct {
	b    Batch // reused columns, cap == batch
	kind uint8
}

// ring is a bounded SPSC ring of batch slots. The producer appends into
// the unpublished slot at tail via buf and publishes by advancing tail;
// the consumer processes the slot at head and releases by advancing
// head. head and tail sit on separate cache lines so the two sides never
// false-share, and each side parks on its own one-token channel after
// the spin phases fail (Dekker-style: waiter sets its flag, re-checks
// the condition, then blocks; waker swaps the flag and drops a token —
// a stale token only causes a spurious re-check).
type ring struct {
	slots []slot
	mask  uint64

	_    [64]byte
	head atomic.Uint64 // next slot to consume (consumer-owned)
	_    [56]byte
	tail atomic.Uint64 // next slot to publish (producer-owned)
	_    [56]byte

	prodWait atomic.Bool
	consWait atomic.Bool
	prodPark chan struct{}
	consPark chan struct{}

	// buf is the unpublished slot's batch, filled in place (nil when no
	// slot is acquired). Producer-only.
	buf *Batch

	// tm/widx, when set, count park/wake events for this ring. All
	// recording sits on the park slow paths, never the fast publish /
	// release edges, so an instrumented ring costs one nil-check per
	// wake and nothing per batch.
	tm   *obs.TransportMetrics
	widx int
}

func newRing(depth, batch int, traced bool, tm *obs.TransportMetrics, widx int) *ring {
	r := &ring{
		slots:    make([]slot, depth),
		mask:     uint64(depth - 1),
		prodPark: make(chan struct{}, 1),
		consPark: make(chan struct{}, 1),
		tm:       tm,
		widx:     widx,
	}
	for i, b := range NewBatches(depth, batch, traced) {
		r.slots[i].b = b
	}
	return r
}

// acquire waits until the slot at tail is reusable, points buf at its
// (emptied) batch and returns it. No-op when a slot is already acquired.
func (r *ring) acquire() *Batch {
	if r.buf != nil {
		return r.buf
	}
	t := r.tail.Load()
	if t-r.head.Load() >= uint64(len(r.slots)) {
		r.waitNotFull(t)
	}
	r.buf = &r.slots[t&r.mask].b
	r.buf.Reset()
	return r.buf
}

// waitNotFull is acquire's slow path: the ring is full, so spin, yield,
// then park until the consumer releases a slot.
func (r *ring) waitNotFull(t uint64) {
	for spin := 0; ; spin++ {
		if t-r.head.Load() < uint64(len(r.slots)) {
			return
		}
		switch {
		case spin < spinTight:
			// re-check
		case spin < spinYield:
			runtime.Gosched()
		default:
			r.prodWait.Store(true)
			if t-r.head.Load() < uint64(len(r.slots)) {
				r.prodWait.Store(false)
				return
			}
			if r.tm != nil {
				r.tm.ProdParks.Inc(r.widx)
			}
			<-r.prodPark
			spin = 0
		}
	}
}

// publish hands the acquired slot to the consumer with the given kind.
func (r *ring) publish(kind uint8) {
	t := r.tail.Load()
	r.slots[t&r.mask].kind = kind
	r.buf = nil
	r.tail.Store(t + 1)
	if r.consWait.Swap(false) {
		if r.tm != nil {
			r.tm.ConsWakes.Inc(r.widx)
		}
		select {
		case r.consPark <- struct{}{}:
		default:
		}
	}
}

// take blocks until a slot is published and returns it. The caller must
// release() when done with the slot's buffer.
func (r *ring) take() *slot {
	h := r.head.Load()
	if r.tail.Load() == h {
		r.waitNotEmpty(h)
	}
	return &r.slots[h&r.mask]
}

// waitNotEmpty is take's slow path, symmetric to waitNotFull.
func (r *ring) waitNotEmpty(h uint64) {
	for spin := 0; ; spin++ {
		if r.tail.Load() != h {
			return
		}
		switch {
		case spin < spinTight:
			// re-check
		case spin < spinYield:
			runtime.Gosched()
		default:
			r.consWait.Store(true)
			if r.tail.Load() != h {
				r.consWait.Store(false)
				return
			}
			if r.tm != nil {
				r.tm.ConsParks.Inc(r.widx)
			}
			<-r.consPark
			spin = 0
		}
	}
}

// release returns the consumed slot to the producer.
func (r *ring) release() {
	r.head.Store(r.head.Load() + 1)
	if r.prodWait.Swap(false) {
		if r.tm != nil {
			r.tm.ProdWakes.Inc(r.widx)
		}
		select {
		case r.prodPark <- struct{}{}:
		default:
		}
	}
}

// occupancy is the number of published-but-unreleased slots, sampled
// racily (scrape-time gauge, exactness not required).
func (r *ring) occupancy() int {
	return int(r.tail.Load() - r.head.Load())
}
