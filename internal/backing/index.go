package backing

import (
	"math/bits"

	"perfq/internal/packet"
)

// keyIndex is the store's key→entry index: an open-addressing hash table
// over packet.Key128 with linear probing. It replaces the previous
// map[packet.Key128]int32 on the eviction hot path for three reasons:
//
//   - The probe is inline code over two flat arrays (no hash-function
//     interface, no bucket pointers), reusing the word-mix Key128.Hash
//     the cache already computes.
//   - Growth is tombstone-free by construction: keys are never deleted
//     individually (Reset drops the whole key space), so the table only
//     ever rebuilds into a larger array — a straight reinsertion with no
//     deletion markers to skip on later probes.
//   - Reset reuses the allocation: clearing the slot array re-empties
//     the table in place, so a tumbling window's per-boundary reset
//     touches no allocator (the map version re-allocated buckets as the
//     next window's keys re-arrived).
//
// A key's home slot is the top log2(len(slots)) bits of its hash. The
// cache picks its bucket from the low bits and flushes bucket by bucket,
// so a bulk flush arrives sorted by those low bits. Homed on the same
// bits, that sorted stream piles into one cluster, and every insert
// probes to its end, for as long as the table is no larger than twice
// the bucket count. The high bits are independent of flush order, so
// the stream lands in effectively random slots. grow reinserts in
// old-slot order, which maps old slot i to new slots 2i and 2i+1, so
// rebuilds stay cluster-free too.
//
// Slots hold entry index + 1 so the zero value means empty and clearing
// is a memset. Load is kept at or below 3/4.
type keyIndex struct {
	keys  []packet.Key128
	slots []int32 // entry index + 1; 0 = empty
	mask  uint64
	shift uint // 64 - log2(len(slots)): home = hash >> shift
	used  int
}

// indexMinSize is the initial slot count (power of two).
const indexMinSize = 256

func (ix *keyIndex) init(size int) {
	ix.keys = make([]packet.Key128, size)
	ix.slots = make([]int32, size)
	ix.mask = uint64(size - 1)
	ix.shift = uint(64 - bits.TrailingZeros(uint(size)))
	ix.used = 0
}

// home is key's home slot: the hash's high bits (see keyIndex).
func (ix *keyIndex) home(key packet.Key128) uint64 { return key.Hash() >> ix.shift }

// get returns the entry index for key, if present.
func (ix *keyIndex) get(key packet.Key128) (int32, bool) {
	if ix.slots == nil {
		return 0, false
	}
	i := ix.home(key)
	for {
		v := ix.slots[i]
		if v == 0 {
			return 0, false
		}
		if ix.keys[i] == key {
			return v - 1, true
		}
		i = (i + 1) & ix.mask
	}
}

// put inserts key→id. The caller guarantees key is absent; put grows the
// table first when the insert would push load above 3/4.
func (ix *keyIndex) put(key packet.Key128, id int32) {
	if ix.slots == nil {
		ix.init(indexMinSize)
	} else if n := len(ix.slots); ix.used+1 > n-(n>>2) {
		ix.grow()
	}
	ix.insert(key, id)
}

// insert places key→id at the end of its probe chain (no growth check).
func (ix *keyIndex) insert(key packet.Key128, id int32) {
	i := ix.home(key)
	for ix.slots[i] != 0 {
		i = (i + 1) & ix.mask
	}
	ix.keys[i] = key
	ix.slots[i] = id + 1
	ix.used++
}

// grow rebuilds the table at double capacity. With no per-key deletion
// there are no tombstones to migrate — every occupied slot reinserts
// into the larger array and probe chains come out clean.
func (ix *keyIndex) grow() {
	oldKeys, oldSlots := ix.keys, ix.slots
	ix.init(len(oldSlots) * 2)
	for i, v := range oldSlots {
		if v != 0 {
			ix.insert(oldKeys[i], v-1)
		}
	}
}

// reset empties the table in place, keeping the allocation. Stale keys
// behind empty slots are unreachable (probes stop at the first empty
// slot only after the matching chain is rebuilt by reinsertion).
func (ix *keyIndex) reset() {
	clear(ix.slots)
	ix.used = 0
}
