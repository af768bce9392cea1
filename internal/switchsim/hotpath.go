package switchsim

import (
	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/shard"
	"perfq/internal/trace"
)

// This file holds the datapath's hot-path schedule: plan-wide compiled
// metadata built once in New (hotPath) and the per-shard scratch that
// keeps the steady-state block loop allocation-free (see processBatch in
// blockpath.go). Three properties matter:
//
//   - No IR tree-walking: WHERE predicates, SELECT columns and fold
//     bodies run as fold bytecode (compiled by the plan compiler; the
//     tree interpreter remains only as a fallback for codes the VM
//     cannot hold).
//   - One field extraction per record: the union of raw fields every
//     compiled code reads is extracted once per block into field-major
//     lanes that the vectorized bytecode indexes directly.
//   - One key computation per distinct GROUPBY key: programs sharing a
//     key spec form a key group whose packed key is computed lazily, at
//     most once per record.

// selectHot is one select-over-T stage, compiled.
type selectHot struct {
	st    *compiler.Stage
	where *fold.Code // nil: match-all, or fall back to st.Where
	cols  []*fold.Code
}

// keyGroup is one distinct GROUPBY key spec shared by ≥1 programs.
type keyGroup struct {
	spec      *compiler.KeySpec
	nk        int
	fiveTuple bool // pack with compiler.FiveTupleKey inline
}

// progHot is one switch program's per-record metadata.
type progHot struct {
	sp     *compiler.SwitchProgram
	wheres []*fold.Code // compiled member guards, aligned with sp.Members
	group  int          // index into hotPath.groups
	always bool         // some member is unguarded: every record matches
}

// hotPath is the compiled per-record schedule, shared read-only by every
// shard.
type hotPath struct {
	fields  []trace.FieldID // dense-extraction list (plan-wide union)
	selects []selectHot
	groups  []keyGroup
	progs   []progHot
	selBit  uint64 // mask bit of the select-over-T targets
}

// newHotPath builds the schedule for a compiled plan.
func newHotPath(plan *compiler.Plan, selStgs []*compiler.Stage) *hotPath {
	hp := &hotPath{selBit: 1 << uint(len(plan.Programs))}
	var mask uint32
	codeMask := func(c *fold.Code) {
		if c != nil {
			mask |= c.FieldMask()
		}
	}
	for _, st := range selStgs {
		sel := selectHot{st: st, where: st.WhereCode, cols: st.ColCodes}
		codeMask(sel.where)
		for _, c := range sel.cols {
			codeMask(c)
		}
		hp.selects = append(hp.selects, sel)
	}
	for _, sp := range plan.Programs {
		ph := progHot{sp: sp, wheres: sp.MemberWhere, group: -1}
		for i, w := range ph.wheres {
			codeMask(w)
			if w == nil && sp.Members[i].Where == nil {
				ph.always = true
			}
		}
		codeMask(sp.Fold.Code)
		if sp.Fold.Linear != nil {
			mask |= sp.Fold.Linear.FieldMask()
		}
		for g := range hp.groups {
			if hp.groups[g].spec.Equal(sp.Key) {
				ph.group = g
				break
			}
		}
		if ph.group < 0 {
			hp.groups = append(hp.groups, keyGroup{
				spec:      sp.Key,
				nk:        sp.Key.NumComponents(),
				fiveTuple: sp.Key.IsFiveTuple(),
			})
			ph.group = len(hp.groups) - 1
		}
		hp.progs = append(hp.progs, ph)
	}
	hp.fields = fold.FieldIDs(mask)
	// Dense pre-extraction pays when several codes re-read the same
	// fields per record. A plan with one unguarded program and no
	// mirrored selects runs exactly one code per packet in the steady
	// state, so the VM's direct Record.Field fallback reads each field
	// once either way — skip the extraction pass entirely.
	if len(hp.selects) == 0 && len(hp.progs) == 1 && hp.progs[0].always {
		hp.fields = nil
	}
	return hp
}

// routing builds the shard routing config: one key extractor per distinct
// key group, with every program mapped onto its group's entry.
func (hp *hotPath) routing(shards, batch int) shard.Config {
	keys := make([]shard.KeyFunc, len(hp.groups))
	for g := range hp.groups {
		keys[g] = hp.groups[g].spec.Of
	}
	targets := make([]int, len(hp.progs))
	for t := range hp.progs {
		targets[t] = hp.progs[t].group
	}
	var freeMask uint64
	if len(hp.selects) > 0 {
		freeMask = hp.selBit
	}
	return shard.Config{
		Shards:   shards,
		Batch:    batch,
		Keys:     keys,
		Targets:  targets,
		FreeMask: freeMask,
	}
}

// shardScratch is the per-shard mutable hot-path state. Everything here
// exists so the steady-state block loop performs zero heap allocations:
// a field-major block with its register file, per-group packed keys
// with a computed-lanes mask, per-target lane masks, and a chunked slab
// that select rows and key-component copies are carved from. The Input
// (with its dense field vector) serves sparse per-lane work: SELECT
// column evaluation over matched lanes.
type shardScratch struct {
	in     fold.Input
	fields [trace.NumFields]float64
	slab   floatSlab

	blk   fold.InputBlock
	bregs fold.BlockRegs
	gkeys [][fold.BlockSize]packet.Key128 // per key group, per lane
	gmask []uint64                        // per key group: lanes packed this block
	lanes []uint64                        // per routing target: the block's lanes
	live  uint64                          // lanes whose record carries a live span

	// spanSlot is the shard's trace-span mailbox: the block loop parks
	// a traced lane's span here while the shard's caches process that
	// lane, so their hops append to it. Owned by the shard's processing
	// goroutine; unused when tracing is off.
	spanSlot obs.SpanSlot
}

func (sc *shardScratch) init(hp *hotPath) {
	if hp.fields != nil {
		sc.in.Fields = sc.fields[:]
	}
	sc.gkeys = make([][fold.BlockSize]packet.Key128, len(hp.groups))
	sc.gmask = make([]uint64, len(hp.groups))
	sc.lanes = make([]uint64, len(hp.progs)+1)
}

// floatSlab hands out []float64 rows carved from large chunks, so
// per-row costs amortize to ~one allocation per slabChunk floats instead
// of one per row. Rows remain valid forever: a retired chunk stays
// reachable through the rows sliced from it.
type floatSlab struct {
	cur []float64
}

// slabChunk is the chunk size in float64s (64 KiB chunks).
const slabChunk = 8192

// take returns a zeroed n-float row with capacity clamped to n.
func (s *floatSlab) take(n int) []float64 {
	if len(s.cur)+n > cap(s.cur) {
		size := slabChunk
		if n > size {
			size = n
		}
		s.cur = make([]float64, 0, size)
	}
	off := len(s.cur)
	s.cur = s.cur[: off+n : cap(s.cur)]
	return s.cur[off : off+n : off+n]
}

// copyOf returns a slab-backed copy of vals.
func (s *floatSlab) copyOf(vals []float64) []float64 {
	row := s.take(len(vals))
	copy(row, vals)
	return row
}
