package shard

import (
	"sync"

	"perfq/internal/obs"
	"perfq/internal/trace"
)

// Batch is one ring slot's payload: a run of routed records held as
// columns, handed whole to the consumer. Masks[i] is the set of targets
// the receiving worker owns for Recs[i]; Spans[i] is the record's trace
// span, and the Spans column exists only when tracing (nil otherwise).
type Batch struct {
	Recs  []trace.Record
	Masks []uint64
	Spans []obs.SpanRef
}

// Len returns the number of records in the batch.
func (b *Batch) Len() int { return len(b.Recs) }

// Reset empties the batch, keeping its column capacity.
func (b *Batch) Reset() {
	b.Recs, b.Masks, b.Spans = b.Recs[:0], b.Masks[:0], b.Spans[:0]
}

// Push appends one record (copied) with its mask and span. The span is
// kept only when the batch carries a Spans column.
func (b *Batch) Push(rec *trace.Record, mask uint64, span obs.SpanRef) {
	b.Recs = append(b.Recs, *rec)
	b.Masks = append(b.Masks, mask)
	if b.Spans != nil {
		b.Spans = append(b.Spans, span)
	}
}

// NewBatches returns n empty batches, each with room for size records;
// traced adds the Spans column.
func NewBatches(n, size int, traced bool) []Batch {
	out := make([]Batch, n)
	for i := range out {
		out[i] = Batch{Recs: make([]trace.Record, 0, size), Masks: make([]uint64, 0, size)}
		if traced {
			out[i].Spans = make([]obs.SpanRef, 0, size)
		}
	}
	return out
}

// Workers moves batches of routed records from a single feeder to one
// goroutine per worker — the transport shared by the key-hash sharded
// Pool and the fabric's switch-demux pump, which differ only in how they
// pick a worker for a record. Each worker drains its own bounded SPSC
// ring of batch slots (see ring.go for why this replaced batched
// channels). Feed, Barrier and Close must be called from one goroutine.
//
// A barrier sentinel slot plays the role the nil batch did on channels:
// a worker acknowledges it in ring order, so after Barrier every record
// fed so far has been processed — the epoch-boundary alignment of the
// windowed runtime.
type Workers struct {
	rings []*ring
	wg    sync.WaitGroup
	bar   sync.WaitGroup
}

// NewWorkers starts n worker goroutines, each draining its ring of
// batches through process (called with the worker's index). batch <= 0
// selects DefaultBatch; each ring holds ringDepth batch slots. traced
// gives every slot a Spans column, and the worker stamps the transport
// hop (arg = batch length) on each live span before process runs. When
// tm is non-nil (sized for n workers), every consumed batch records its
// size and the rings count park/wake events. Instrumentation sits on
// the per-batch and park slow paths only — a nil tm costs one
// predictable branch per batch, nothing per record.
func NewWorkers(n, batch int, tm *obs.TransportMetrics, traced bool, process func(worker int, b *Batch)) *Workers {
	if batch <= 0 {
		batch = DefaultBatch
	}
	w := &Workers{rings: make([]*ring, n)}
	for i := 0; i < n; i++ {
		r := newRing(ringDepth, batch, traced, tm, i)
		w.rings[i] = r
		w.wg.Add(1)
		go func(i int, r *ring) {
			defer w.wg.Done()
			for {
				s := r.take()
				switch s.kind {
				case slotBatch:
					for _, sp := range s.b.Spans {
						if sp.Live() {
							sp.Hop(obs.HopTransport, obs.OutcomeOK, uint64(s.b.Len()))
						}
					}
					process(i, &s.b)
					if tm != nil {
						tm.RecordBatch(i, s.b.Len())
					}
					r.release()
				case slotBarrier:
					r.release()
					w.bar.Done()
				default: // slotClose
					r.release()
					return
				}
			}
		}(i, r)
	}
	return w
}

// Occupancy sums the published-but-unprocessed slots across rings — a
// racy scrape-time backlog gauge in slot units.
func (w *Workers) Occupancy() int {
	var n int
	for _, r := range w.rings {
		n += r.occupancy()
	}
	return n
}

// Feed appends a record to worker's pending batch slot, publishing it
// when full. The slot columns are ring-owned and reused in place, so the
// steady state allocates nothing.
func (w *Workers) Feed(worker int, rec *trace.Record, mask uint64, span obs.SpanRef) {
	r := w.rings[worker]
	b := r.acquire()
	b.Push(rec, mask, span)
	if len(b.Recs) == cap(b.Recs) {
		r.publish(slotBatch)
	}
}

// sentinel flushes every ring's pending partial batch and publishes one
// sentinel slot per ring — the single flush path of Barrier and Close.
func (w *Workers) sentinel(kind uint8) {
	for _, r := range w.rings {
		if r.buf != nil && r.buf.Len() > 0 {
			r.publish(slotBatch)
		}
		r.acquire()
		r.publish(kind)
	}
}

// Barrier flushes pending batches and blocks until every record fed so
// far has been processed. The workers stay usable.
func (w *Workers) Barrier() {
	w.bar.Add(len(w.rings))
	w.sentinel(slotBarrier)
	w.bar.Wait()
}

// Close flushes, delivers a close sentinel and waits for the workers to
// exit. The Workers must not be fed afterwards.
func (w *Workers) Close() {
	w.sentinel(slotClose)
	w.wg.Wait()
}
