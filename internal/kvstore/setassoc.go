package kvstore

import (
	"encoding/binary"
	"math"

	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// setAssoc is the array-layout cache for n ≥ 2 buckets (Figure 4): slot
// storage is fixed; LRU order within a bucket is a tiny per-bucket
// permutation of slot indices, so promoting an entry moves one byte, not
// the state vectors.
type setAssoc struct {
	cfg       Config
	fold      *fold.Func       // hoisted from cfg for the per-packet path
	lin       *fold.LinearSpec // non-nil iff exact merge
	geom      Geometry
	mask      uint64
	ways      int
	m         int // state vector length
	exact     bool
	needFirst bool // exact merge with history coefficients: snapshot pkt 1

	// tags hold the top hash byte per slot (the bucket index consumes
	// low bits), so a probe rejects non-matching slots on a one-byte
	// compare instead of a 16-byte key compare. Used when ways > 8.
	tags []uint8
	// vals is the slot storage, indexed by bucket*ways+slot: each slot
	// interleaves its key (two bit-cast words), its state vector (m
	// words) and, under exact merge, its running product (m·m words) —
	// stride words per slot. Key, state and product are always touched
	// together on a hit, so colocating them keeps the per-packet probe
	// and update on one cache line for small m.
	vals   []float64
	stride int
	first  []trace.Record

	// order[bucket*ways+i] = slot index of the i-th most recently used
	// entry of the bucket; only the first fill(bucket) entries are live.
	// Used when ways > 8.
	order []uint8
	fill  []uint8
	// occ holds one bit per bucket, set on the bucket's 0→1 fill
	// transition and cleared by Flush, so a flush walks only occupied
	// buckets (ascending, the same order as a full scan) instead of
	// every bucket of the cache.
	occ []uint64

	// Word-packed bucket metadata, used when ways ≤ 8 (the practical
	// geometries): byte i of metaOrd[b] is the slot id of the bucket's
	// i-th most recently used entry, byte s of metaTags[b] is slot s's
	// tag. A probe then touches two words and the one matching key
	// instead of walking three byte arrays, and an LRU promotion is a
	// shift-and-mask instead of a byte-slice rotate.
	packed8  bool
	metaOrd  []uint64
	metaTags []uint64

	// Fused scalar update (1×1 history-free exact merge, e.g. EWMA):
	// state' = a·state + b and P' = a·P applied inline on the hit path.
	scalar   bool
	scalarA  float64
	scalarB  *fold.Code // nil: the constant scalarBC
	scalarBC float64

	stats Stats

	// Sampled tracing. trMask is obs.NoSample when tracing is off, so
	// the per-access guard (h&trMask == 0) needs no nil branch and costs
	// both the traced and untraced builds the same AND+compare.
	tr     *obs.Tracer
	trMask uint64
	trSlot *obs.SpanSlot
	trW    int

	aScratch []float64
	mScratch []float64
	ev       Eviction   // reused eviction payload (fields are borrowed anyway)
	blockIn  fold.Input // reused ProcessBlock input (a local would escape per call)
	resident int
}

func newSetAssoc(cfg Config, g Geometry) *setAssoc {
	m := cfg.Fold.StateLen()
	c := &setAssoc{
		cfg:    cfg,
		fold:   cfg.Fold,
		geom:   g,
		mask:   uint64(g.Buckets - 1),
		ways:   g.Ways,
		m:      m,
		exact:  cfg.ExactMerge,
		fill:   make([]uint8, g.Buckets),
		occ:    make([]uint64, (g.Buckets+63)/64),
		tr:     cfg.Trace,
		trMask: cfg.Trace.HashMask(),
		trSlot: cfg.TraceSpan,
		trW:    cfg.TraceWriter,
	}
	c.stride = 2 + m
	if cfg.ExactMerge {
		c.stride += m * m
	}
	c.vals = make([]float64, g.Buckets*g.Ways*c.stride)
	if g.Ways <= 8 {
		c.packed8 = true
		c.metaOrd = make([]uint64, g.Buckets)
		c.metaTags = make([]uint64, g.Buckets)
	} else {
		c.tags = make([]uint8, g.Buckets*g.Ways)
		c.order = make([]uint8, g.Buckets*g.Ways)
	}
	if cfg.ExactMerge {
		c.lin = cfg.Fold.Linear
		c.needFirst = c.lin.NeedsFirstPacket
		if c.needFirst {
			c.first = make([]trace.Record, g.Buckets*g.Ways)
		}
		c.aScratch = make([]float64, m*m)
		c.mScratch = make([]float64, m*m)
		c.scalarA, c.scalarB, c.scalarBC, c.scalar = c.lin.Scalar()
	}
	return c
}

func (c *setAssoc) Geometry() Geometry { return c.geom }
func (c *setAssoc) Len() int           { return c.resident }
func (c *setAssoc) Stats() Stats       { return c.stats }

func (c *setAssoc) slotState(slot int) []float64 {
	off := slot*c.stride + 2
	return c.vals[off : off+c.m]
}

func (c *setAssoc) slotProd(slot int) []float64 {
	off := slot*c.stride + 2 + c.m
	return c.vals[off : off+c.m*c.m]
}

// keyWords splits a key into the two bit-cast lanes of a slot record.
func keyWords(key packet.Key128) (k0, k1 float64) {
	return math.Float64frombits(binary.LittleEndian.Uint64(key[0:8])),
		math.Float64frombits(binary.LittleEndian.Uint64(key[8:16]))
}

// slotKey reassembles a slot's key from its lanes. Bit patterns survive
// float64 load/store round trips untouched (Go does not canonicalize
// NaNs on moves), so this is exact.
func (c *setAssoc) slotKey(slot int) packet.Key128 {
	off := slot * c.stride
	var key packet.Key128
	binary.LittleEndian.PutUint64(key[0:8], math.Float64bits(c.vals[off]))
	binary.LittleEndian.PutUint64(key[8:16], math.Float64bits(c.vals[off+1]))
	return key
}

// Process implements Cache.
func (c *setAssoc) Process(key packet.Key128, in *fold.Input) bool {
	if c.packed8 {
		return c.process8(key, in)
	}
	c.stats.Accesses++
	h := key.Hash()
	b := int(h & c.mask)
	tag := uint8(h >> 56)
	base := b * c.ways
	n := int(c.fill[b])
	ord := c.order[base : base+c.ways]

	k0 := binary.LittleEndian.Uint64(key[0:8])
	k1 := binary.LittleEndian.Uint64(key[8:16])

	// Hit path: scan the bucket in recency order. Key lanes compare as
	// bit patterns — float == would treat NaN lanes as unequal and ±0
	// lanes as equal.
	for i := 0; i < n; i++ {
		slot := base + int(ord[i])
		off := slot * c.stride
		if c.tags[slot] == tag &&
			math.Float64bits(c.vals[off]) == k0 &&
			math.Float64bits(c.vals[off+1]) == k1 {
			c.stats.Hits++
			c.update(slot, in)
			// Promote to MRU: rotate ord[0..i] right by one. An explicit
			// byte loop rather than copy(): the span is at most ways-1
			// bytes and this runs once per packet, so the memmove call
			// overhead dominates the move itself.
			mru := ord[i]
			for j := i; j > 0; j-- {
				ord[j] = ord[j-1]
			}
			ord[0] = mru
			if h&c.trMask == 0 {
				traceCacheHop(c.tr, c.trSlot, c.trW, key, false)
			}
			return false
		}
	}

	// Miss path: pick a slot — a free one, else the bucket's LRU victim.
	var slotIdx uint8
	if n < c.ways {
		// Free slots are exactly the order entries beyond fill; slot ids
		// 0..ways-1 each appear once in ord by invariant, so take the one
		// at position n (initialized lazily below).
		slotIdx = c.freeSlot(b, n)
		if n == 0 {
			c.occ[b>>6] |= 1 << uint(b&63)
		}
		c.fill[b]++
		c.resident++
	} else {
		slotIdx = ord[n-1]
		c.evict(base+int(slotIdx), EvictCapacity)
		c.stats.Evictions++
	}
	slot := base + int(slotIdx)
	c.insert(slot, key, tag, in)
	c.stats.Inserts++
	// Promote the new entry to MRU.
	if n >= c.ways {
		n = c.ways - 1
	}
	copy(ord[1:n+1], ord[0:n])
	ord[0] = slotIdx
	if h&c.trMask == 0 {
		traceCacheHop(c.tr, c.trSlot, c.trW, key, true)
	}
	return true
}

// ProcessBlock implements Cache: one dispatch for a block of packets.
func (c *setAssoc) ProcessBlock(keys *[fold.BlockSize]packet.Key128, recs []trace.Record, mask uint64) uint64 {
	var inserted uint64
	in := &c.blockIn
	if c.packed8 {
		for m := mask; m != 0; m &= m - 1 {
			l := tz64(m)
			in.Rec = &recs[l]
			if c.process8(keys[l], in) {
				inserted |= 1 << l
			}
		}
		return inserted
	}
	for m := mask; m != 0; m &= m - 1 {
		l := tz64(m)
		in.Rec = &recs[l]
		if c.Process(keys[l], in) {
			inserted |= 1 << l
		}
	}
	return inserted
}

// process8 is Process for the word-packed metadata layout (ways ≤ 8).
// Identical cache behavior — same probe order, same LRU discipline —
// with the bucket's recency permutation and tag bytes each held in one
// uint64.
func (c *setAssoc) process8(key packet.Key128, in *fold.Input) bool {
	c.stats.Accesses++
	h := key.Hash()
	b := int(h & c.mask)
	tag := uint8(h >> 56)
	base := b * c.ways
	n := int(c.fill[b])
	ordW := c.metaOrd[b]
	tagW := c.metaTags[b]

	k0 := binary.LittleEndian.Uint64(key[0:8])
	k1 := binary.LittleEndian.Uint64(key[8:16])

	// Hit path: probe in recency order; a probe compares one tag byte
	// and touches the full key (as bit patterns) only on a tag match.
	for i := 0; i < n; i++ {
		slotIdx := uint8(ordW >> (8 * uint(i)))
		if uint8(tagW>>(8*slotIdx)) != tag {
			continue
		}
		slot := base + int(slotIdx)
		off := slot * c.stride
		if math.Float64bits(c.vals[off]) != k0 || math.Float64bits(c.vals[off+1]) != k1 {
			continue
		}
		c.stats.Hits++
		c.update(slot, in)
		if i > 0 {
			// Promote to MRU: shift recency bytes 0..i-1 up one lane and
			// drop this slot's byte into lane 0.
			low := ordW & (uint64(1)<<(8*uint(i)) - 1)
			high := ordW &^ (uint64(1)<<(8*uint(i+1)) - 1)
			c.metaOrd[b] = high | low<<8 | uint64(slotIdx)
		}
		if h&c.trMask == 0 {
			traceCacheHop(c.tr, c.trSlot, c.trW, key, false)
		}
		return false
	}

	// Miss path: pick a slot — a free one, else the bucket's LRU victim.
	var slotIdx uint8
	pos := n // recency lane the chosen slot currently occupies
	if n < c.ways {
		if n == 0 {
			ordW = 0x0706050403020100 // identity permutation
			c.occ[b>>6] |= 1 << uint(b&63)
		}
		slotIdx = uint8(ordW >> (8 * uint(n)))
		c.fill[b]++
		c.resident++
	} else {
		pos = n - 1
		slotIdx = uint8(ordW >> (8 * uint(pos)))
		c.evict(base+int(slotIdx), EvictCapacity)
		c.stats.Evictions++
	}
	low := ordW & (uint64(1)<<(8*uint(pos)) - 1)
	high := ordW &^ (uint64(1)<<(8*uint(pos+1)) - 1)
	c.metaOrd[b] = high | low<<8 | uint64(slotIdx)
	sh := 8 * uint(slotIdx)
	c.metaTags[b] = tagW&^(uint64(0xff)<<sh) | uint64(tag)<<sh
	c.insert(base+int(slotIdx), key, tag, in)
	c.stats.Inserts++
	if h&c.trMask == 0 {
		traceCacheHop(c.tr, c.trSlot, c.trW, key, true)
	}
	return true
}

// freeSlot returns a slot id not currently used by the bucket. Order
// entries are maintained as a permutation of 0..ways-1 once initialized;
// before first fill they are zero, so initialize on demand.
func (c *setAssoc) freeSlot(b, n int) uint8 {
	base := b * c.ways
	ord := c.order[base : base+c.ways]
	if n == 0 {
		// Lazily establish the identity permutation.
		for i := range ord {
			ord[i] = uint8(i)
		}
		return 0
	}
	return ord[n]
}

// update applies one packet to a resident entry.
func (c *setAssoc) update(slot int, in *fold.Input) {
	if c.scalar {
		off := slot * c.stride
		b := c.scalarBC
		if c.scalarB != nil {
			b = c.scalarB.Eval(in, nil)
		}
		c.vals[off+2] = c.scalarA*c.vals[off+2] + b // state
		c.vals[off+3] = c.scalarA * c.vals[off+3]   // P
		return
	}
	st := c.slotState(slot)
	if c.exact {
		c.lin.UpdateLinear(st, c.slotProd(slot), in, c.aScratch, c.mScratch)
		return
	}
	c.fold.Update(st, in)
}

// insert initializes a slot for a new key and applies its first packet.
func (c *setAssoc) insert(slot int, key packet.Key128, tag uint8, in *fold.Input) {
	off := slot * c.stride
	c.vals[off], c.vals[off+1] = keyWords(key)
	if c.tags != nil {
		c.tags[slot] = tag // packed8 keeps tags in metaTags instead
	}
	st := c.slotState(slot)
	c.fold.Init(st)
	if c.exact {
		if c.needFirst {
			// P starts at identity and excludes the first packet, which
			// is snapshotted instead (fold.MergeWithFirstRec replays it).
			fold.IdentityP(c.slotProd(slot), c.m)
			c.first[slot] = *in.Rec
		} else {
			// History-free coefficients: P starts at the first packet's A
			// (evaluated against the pre-update initial state), covers
			// the whole epoch, and merges with MergeLinearState — no
			// per-insert record snapshot.
			c.lin.InitP(c.slotProd(slot), in, st)
		}
	}
	c.fold.Update(st, in)
}

// evict delivers an entry to the eviction handler and clears the slot.
// The Eviction payload is a per-cache scratch value: its contents are
// borrowed slices already, so reusing the struct across evictions adds
// no new aliasing constraints and keeps the eviction path allocation-free.
func (c *setAssoc) evict(slot int, reason EvictReason) {
	if c.cfg.OnEvict != nil {
		key := c.slotKey(slot)
		c.ev = Eviction{
			Key:    key,
			State:  c.slotState(slot),
			Reason: reason,
		}
		if c.exact {
			c.ev.P = c.slotProd(slot)
			if c.needFirst {
				c.ev.FirstRec = &c.first[slot]
			}
		}
		if c.trMask != obs.NoSample && key.Hash()&c.trMask == 0 {
			c.ev.Span = traceEvictSpan(c.tr, c.trW, key, reason)
		}
		c.cfg.OnEvict(&c.ev)
	} else if c.trMask != obs.NoSample {
		// No downstream consumer, but the eviction story is still worth
		// recording for sampled keys.
		if key := c.slotKey(slot); key.Hash()&c.trMask == 0 {
			traceEvictSpan(c.tr, c.trW, key, reason)
		}
	}
}

// Flush implements Cache: evicts every resident entry bucket by bucket in
// recency order. The occupancy bitmap yields the non-empty buckets in
// ascending order, so the eviction sequence is exactly a full scan's at
// O(buckets/64 + resident) cost.
func (c *setAssoc) Flush() {
	for w, word := range c.occ {
		for ; word != 0; word &= word - 1 {
			b := w<<6 | tz64(word)
			base := b * c.ways
			n := int(c.fill[b])
			for i := 0; i < n; i++ {
				var slotIdx uint8
				if c.packed8 {
					slotIdx = uint8(c.metaOrd[b] >> (8 * uint(i)))
				} else {
					slotIdx = c.order[base+i]
				}
				c.evict(base+int(slotIdx), EvictFlush)
				c.stats.Flushed++
			}
			c.fill[b] = 0
		}
		c.occ[w] = 0
	}
	c.resident = 0
}
