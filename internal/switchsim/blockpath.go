package switchsim

import (
	"math/bits"

	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/trace"
)

// This file is the datapath's one drive loop — the software stand-in for
// the paper's one-update-per-clock pipeline stage. Every bulk path ends
// here: single-shard feeds, shard-pool workers (a ring slot's batch),
// the inline routed path (a block routed first, then handed per shard)
// and the fabric pump. A batch is cut into blocks of up to
// fold.BlockSize records and each pipeline step runs across the whole
// block — one field extraction pass per field (not per record), WHERE
// predicates through the VM's vectorized EvalBoolBlock, GROUPBY keys
// packed once per (group, lane), and one kvstore interface dispatch per
// program per block.
//
// Routing folds into the lane masks: the router's per-record target
// mask has bit pi for program pi and hotPath.selBit for the
// select-over-T stages, so each program's lanes are the block's records
// carrying its bit, ANDed into its WHERE mask. Per-program and
// per-select processing order is ascending lanes, the records' arrival
// order, so every table, store and accuracy number is bit-identical to
// applying the records one at a time; only the interleaving *between*
// programs within a block differs, which nothing observable depends on
// (Config.OnEvict ordering across programs is unspecified, matching the
// sharded path's cross-shard ordering contract).

// processBatch applies a run of records to this shard's targets. masks,
// when non-nil, holds each record's routed target mask; nil means the
// shard owns every target (the single-shard datapath). spans, when
// non-nil, carries each record's trace span into the caches. It is
// allocation-free in the steady state: the block, its registers and the
// per-group keys are shard scratch, and the rows the path retains
// (mirrored SELECT output, digest-key component values) come from a
// chunked slab.
func (sh *shardState) processBatch(d *Datapath, recs []trace.Record, masks []uint64, spans []obs.SpanRef) {
	for base := 0; base < len(recs); base += fold.BlockSize {
		end := min(base+fold.BlockSize, len(recs))
		var m []uint64
		var sp []obs.SpanRef
		if masks != nil {
			m = masks[base:end]
		}
		if spans != nil {
			sp = spans[base:end]
		}
		sh.processBlock(d, recs[base:end], m, sp)
	}
	sh.nBlockRecs += uint64(len(recs))
}

// gatherLane rebuilds the record-major dense field vector for one lane,
// so sparse per-record work (SELECT column evaluation) reuses the
// already-extracted block values through the scalar Input.
func (sc *shardScratch) gatherLane(hp *hotPath, l int) {
	for _, f := range hp.fields {
		sc.fields[f] = sc.blk.Lane(f)[l]
	}
}

// processBlock is processBatch's body for one block of 1..BlockSize
// records.
func (sh *shardState) processBlock(d *Datapath, recs []trace.Record, masks []uint64, spans []obs.SpanRef) {
	hp := d.hot
	sc := &sh.scratch
	n := len(recs)
	full := ^uint64(0) >> (64 - uint(n))

	// Transpose the routed masks into per-target lane masks: lanes[pi]
	// for program pi, lanes[len(progs)] for the select-over-T stages.
	lanes := sc.lanes
	if masks == nil {
		for t := range lanes {
			lanes[t] = full
		}
	} else {
		clear(lanes)
		for l, m := range masks {
			for ; m != 0; m &= m - 1 {
				lanes[bits.TrailingZeros64(m)] |= 1 << uint(l)
			}
		}
	}
	sc.live = 0
	for l, sp := range spans {
		if sp.Live() {
			sc.live |= 1 << uint(l)
		}
	}

	// One extraction pass per field: the Record.Field dispatch switch
	// resolves once per field per block (perfectly predicted across the
	// lane loop) instead of once per field per record.
	for _, f := range hp.fields {
		lane := sc.blk.Lane(f)
		for l := 0; l < n; l++ {
			lane[l] = float64(recs[l].Field(f))
		}
	}

	// Mirror matching records for select-over-T stages: batched WHERE,
	// then per-matched-lane column evaluation (matches are sparse, so
	// evaluating columns lane-wise would waste the non-matching lanes).
	if own := lanes[len(hp.progs)]; own != 0 {
		for si := range hp.selects {
			sel := &hp.selects[si]
			mask := own
			if sel.where != nil {
				mask &= sel.where.EvalBoolBlock(&sc.blk, n, &sc.bregs)
			} else if sel.st.Where != nil {
				mask = 0
				for m := own; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					in := fold.Input{Rec: &recs[l]}
					if fold.EvalPred(sel.st.Where, &in, nil) {
						mask |= 1 << uint(l)
					}
				}
			}
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				sc.gatherLane(hp, l)
				sc.in.Rec = &recs[l]
				row := sc.slab.take(len(sel.st.Cols))
				for i := range row {
					if c := sel.cols[i]; c != nil {
						row[i] = c.Eval(&sc.in, nil)
					} else {
						row[i] = fold.EvalExpr(sel.st.Cols[i], &sc.in, nil)
					}
				}
				sh.selRows[si] = append(sh.selRows[si], row)
			}
		}
	}

	// Key-value store programs: per program, its routed lanes ANDed into
	// a block-wide match mask, lazily shared key packing per (group,
	// lane), then one ProcessBlock call — ascending lane order inside,
	// exactly the per-record sequence.
	clear(sc.gmask)
	for pi := range hp.progs {
		ph := &hp.progs[pi]
		own := lanes[pi]
		if own == 0 {
			continue
		}
		mask := own
		if !ph.always {
			mask = 0
			for i, w := range ph.wheres {
				if w != nil {
					mask |= own & w.EvalBoolBlock(&sc.blk, n, &sc.bregs)
				} else if p := ph.sp.Members[i].Where; p != nil {
					for m := own &^ mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros64(m)
						in := fold.Input{Rec: &recs[l]}
						if fold.EvalPred(p, &in, nil) {
							mask |= 1 << uint(l)
						}
					}
				}
				if mask == own {
					break
				}
			}
			if mask == 0 {
				continue
			}
		}
		g := ph.group
		kg := &hp.groups[g]
		keys := &sc.gkeys[g]
		if need := mask &^ sc.gmask[g]; need != 0 {
			if kg.fiveTuple {
				for m := need; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					keys[l] = compiler.FiveTupleKey(&recs[l]) // inlines
				}
			} else {
				for m := need; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					keys[l] = kg.spec.Of(&recs[l])
				}
			}
			sc.gmask[g] |= need
		}
		ps := sh.progs[pi]
		var inserted uint64
		if mask&sc.live == 0 {
			inserted = ps.cache.ProcessBlock(keys, recs, mask)
		} else {
			inserted = sh.tracedBlock(ps, keys, recs, mask, spans)
		}
		if inserted != 0 && ps.keyVals != nil {
			// Digest-mode keys are irreversible, so component values ride
			// alongside, recorded on insert only: map traffic stays off
			// the hit path, and the containment check makes re-inserts
			// after eviction idempotent so slab rows aren't duplicated.
			for m := inserted; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				key := keys[l]
				if _, ok := ps.keyVals[key]; !ok {
					var kv [8]float64
					kg.spec.Values(&recs[l], kv[:kg.nk])
					ps.keyVals[key] = sc.slab.copyOf(kv[:kg.nk])
				}
			}
		}
	}
}

// tracedBlock is ProcessBlock for a block holding sampled records: the
// lanes are cut into runs at each traced lane, and the traced lane's
// span is parked in the shard's mailbox while the cache processes it, so
// its cache hops land on the record's span. Lane order is unchanged.
func (sh *shardState) tracedBlock(ps *progState, keys *[fold.BlockSize]packet.Key128, recs []trace.Record, mask uint64, spans []obs.SpanRef) uint64 {
	slot := &sh.scratch.spanSlot
	var inserted uint64
	for mask != 0 {
		traced := mask & sh.scratch.live
		if traced == 0 {
			inserted |= ps.cache.ProcessBlock(keys, recs, mask)
			break
		}
		l := uint(bits.TrailingZeros64(traced))
		if below := mask & (1<<l - 1); below != 0 {
			inserted |= ps.cache.ProcessBlock(keys, recs, below)
		}
		slot.Ref = spans[l]
		inserted |= ps.cache.ProcessBlock(keys, recs, 1<<l)
		slot.Ref = obs.SpanRef{}
		mask &^= 1<<(l+1) - 1
	}
	return inserted
}
