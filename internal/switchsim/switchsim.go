// Package switchsim models the switch side of the co-design: a
// programmable parser feeding a match-action pipeline whose stateful
// stage is the programmable key-value store of §3.
//
// For every compiled SwitchProgram the datapath instantiates an on-chip
// cache (internal/kvstore) wired to a backing store (internal/backing);
// WHERE predicates execute as the match part of a match-action entry,
// GROUPBY key extraction as the action, and one initialize-or-update per
// packet as the stateful ALU operation. Plain SELECT stages over T are
// realized the way real switches do it — match and mirror matching
// records to the collector.
//
// The datapath can run sharded (Config.Shards > 1): records are
// hash-partitioned by each program's GROUPBY key across N workers
// (internal/shard), each owning an independent cache + backing store per
// program, and the per-shard tables — disjoint by construction — are
// merged deterministically at materialization. The configured cache
// geometry is divided across shards so total on-chip capacity stays at
// the configured operating point regardless of shard count.
//
// The simulation operates on trace.Records rather than raw bytes (the
// parser stage is exercised by internal/packet); timing is not modeled
// beyond the one-update-per-packet constraint, which matches the paper's
// own evaluation methodology.
package switchsim

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"perfq/internal/backing"
	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
	"perfq/internal/packet"
	"perfq/internal/shard"
	"perfq/internal/trace"
)

// Config configures the datapath.
type Config struct {
	// Geometry is the cache layout used for every switch program. With
	// Shards > 1 it is the TOTAL layout, divided evenly across shards.
	// The zero value defaults to the paper's preferred point: an 8-way
	// set-associative cache sized 2^18 pairs (32 Mbit at 128 bits/pair).
	Geometry kvstore.Geometry
	// DisableExactMerge turns off the linear-in-state merge machinery
	// even for linear folds (evictions then degrade to epoch semantics) —
	// the ablation knob for the paper's central mechanism.
	DisableExactMerge bool
	// OnEvict, when set, observes every eviction of every program (after
	// the backing store has consumed it). With Shards > 1 callbacks may
	// fire from concurrent workers; the datapath serializes them with an
	// internal mutex, but their relative order across shards is
	// unspecified.
	OnEvict func(prog int, ev *kvstore.Eviction)
	// Shards is the number of parallel datapath shards; values < 2 run
	// the serial single-owner datapath (exactly today's behavior).
	Shards int
	// ShardBatch overrides the records-per-batch granularity of the
	// sharded router (0 selects shard.DefaultBatch). Exposed for tests.
	ShardBatch int
	// Metrics, when non-nil, registers this datapath's metric families
	// (packets, path mix, per-program cache/store counters, transport)
	// into the registry. The hot loop is untouched: plain counters are
	// mirrored into atomic cells at batch boundaries (see metrics.go).
	Metrics *obs.Registry
	// MetricsLabels is the label fragment prefixed to every series this
	// datapath registers (the fabric sets `switch="name"`).
	MetricsLabels string
	// Trace, when non-nil, enables sampled packet tracing: the shard
	// router marks 1-in-2^k records by key hash and the marked records
	// carry a span through transport → cache → eviction (see obs.Tracer).
	// The unsampled hot path pays one AND+compare per key group, against
	// hashes it computes anyway.
	Trace *obs.Tracer
	// Journal, when non-nil, receives control-plane events (barrier
	// syncs). The packet path never touches it.
	Journal *obs.Journal
}

// progState is one physical key-value store instance, owned by exactly
// one shard.
type progState struct {
	sp    *compiler.SwitchProgram
	cache kvstore.Cache
	store *backing.Store
	// keyVals records component values for digest-mode keys (hardware
	// would use wider key SRAM; see DESIGN.md).
	keyVals map[packet.Key128][]float64
	exact   bool
}

// shardState is the per-shard slice of datapath state: one store
// instance per switch program, the mirrored rows of select-over-T stages
// this shard was assigned (selRows[i] parallels Datapath.selStgs), and
// the reused per-record scratch that keeps the hot loop allocation-free.
type shardState struct {
	progs   []*progState
	selRows [][][]float64
	scratch shardScratch

	// Plain path-mix counters, owned by the shard's processing
	// goroutine and mirrored by publishShard at batch boundaries.
	nBlockRecs  uint64
	nScalarRecs uint64
	sincePub    int // blocks since the last periodic publish
}

// Datapath executes a plan's switch-resident stages.
type Datapath struct {
	plan    *compiler.Plan
	hot     *hotPath
	shards  []*shardState
	selStgs []*compiler.Stage // select-over-T stages, in plan order
	routing shard.Config
	router  *shard.Router   // inline routed path's router (the pool owns its own)
	split   []shard.Batch   // inline routed path's per-shard block columns
	pool    *shard.Pool     // persistent sharded feeder of the streaming/windowed path
	one     [1]trace.Record // Process's one-lane block
	packets uint64

	accBuf []Acc         // CloseWindow's reused accuracy snapshot (borrowed by callers)
	tscr   tablesScratch // Tables' reused materialization scratch

	obs     *dpObs       // atomic mirrors for the metrics registry (nil = off)
	tr      *obs.Tracer  // sampled packet tracing (nil = off)
	journal *obs.Journal // control-plane event journal (nil = off)
}

// newShardState builds one shard's stores for the plan. shardIdx is the
// shard's position, used as the tracer's span-ring writer stripe.
func newShardState(plan *compiler.Plan, hp *hotPath, geo kvstore.Geometry, cfg Config, shardIdx int, evictMu *sync.Mutex) (*shardState, error) {
	sh := &shardState{selRows: make([][][]float64, len(hp.selects))}
	sh.scratch.init(hp)
	for i, sp := range plan.Programs {
		ps := &progState{
			sp:    sp,
			store: backing.New(sp.Fold),
			exact: sp.Fold.Merge == fold.MergeLinear && !cfg.DisableExactMerge,
		}
		if !sp.Key.Packed {
			ps.keyVals = map[packet.Key128][]float64{}
		}
		idx := i
		cache, err := kvstore.New(kvstore.Config{
			Geometry:   geo,
			Fold:       sp.Fold,
			ExactMerge: ps.exact,
			OnEvict: func(ev *kvstore.Eviction) {
				ps.store.HandleEviction(ev)
				if cfg.OnEvict != nil {
					if evictMu != nil {
						evictMu.Lock()
						defer evictMu.Unlock()
					}
					cfg.OnEvict(idx, ev)
				}
			},
			Trace:       cfg.Trace,
			TraceSpan:   &sh.scratch.spanSlot,
			TraceWriter: shardIdx,
		})
		if err != nil {
			return nil, fmt.Errorf("switchsim: program %d: %w", i, err)
		}
		ps.cache = cache
		sh.progs = append(sh.progs, ps)
	}
	return sh, nil
}

// New builds a datapath for the plan.
func New(plan *compiler.Plan, cfg Config) (*Datapath, error) {
	if cfg.Geometry == (kvstore.Geometry{}) {
		cfg.Geometry = kvstore.SetAssociative(1<<18, 8)
	}
	n := cfg.Shards
	if n < 1 {
		n = 1
	}
	// The routing mask carries one bit per program plus one for the
	// select-over-T stages; plans are far below the 64-target ceiling,
	// but degrade safely rather than corrupt masks (the serial datapath
	// ignores masks entirely, so any program count works at n = 1).
	if len(plan.Programs)+1 > shard.MaxTargets {
		n = 1
	}
	d := &Datapath{plan: plan}
	for _, st := range plan.Stages {
		if st.Kind == compiler.KindSelect && st.Input == nil {
			d.selStgs = append(d.selStgs, st)
		}
	}
	d.hot = newHotPath(plan, d.selStgs)

	geo := cfg.Geometry.Split(n)
	var evictMu *sync.Mutex
	if n > 1 && cfg.OnEvict != nil {
		evictMu = &sync.Mutex{}
	}
	for s := 0; s < n; s++ {
		sh, err := newShardState(plan, d.hot, geo, cfg, s, evictMu)
		if err != nil {
			return nil, err
		}
		d.shards = append(d.shards, sh)
	}

	d.tr = cfg.Trace
	d.journal = cfg.Journal
	d.routing = d.hot.routing(n, cfg.ShardBatch)
	d.routing.Trace = cfg.Trace
	d.router = shard.NewRouter(d.routing)
	if n > 1 {
		d.split = shard.NewBatches(n, fold.BlockSize, cfg.Trace != nil)
	}
	if cfg.Metrics != nil {
		d.obs = newDpObs(cfg.Metrics, cfg.MetricsLabels, n, len(plan.Programs))
		d.routing.Obs = obs.NewTransportMetrics(n)
		d.routing.AfterBatch = d.publishShard
		o := d.obs
		d.routing.Obs.Register(cfg.Metrics,
			obs.JoinLabels(cfg.MetricsLabels, `transport="shards"`),
			func() int {
				if p := o.pool.Load(); p != nil {
					return p.Occupancy()
				}
				return 0
			})
	}
	return d, nil
}

// Shards returns the configured shard count.
func (d *Datapath) Shards() int { return len(d.shards) }

// Packets returns how many records the datapath has processed.
func (d *Datapath) Packets() uint64 { return d.packets }

// Process applies one packet observation to every switch-resident stage,
// on the calling goroutine, as a one-lane block (with Shards > 1 the
// record is routed to its owning shards inline). Bulk replay should
// prefer Feed or Run.
func (d *Datapath) Process(rec *trace.Record) {
	d.one[0] = *rec
	d.Apply(d.one[:], nil)
}

// Apply processes a run of records inline on the calling goroutine, which
// must own the datapath (no live worker pool). With Shards > 1 each
// block is routed first, then every shard runs its share through the
// same block loop the pool workers run — same routing masks, same
// per-shard arrival order. spans, when non-nil, is the records' trace
// span column (the fabric pump's demux samples), so cache hops land on
// each sampled record's span.
func (d *Datapath) Apply(recs []trace.Record, spans []obs.SpanRef) {
	d.packets += uint64(len(recs))
	if len(d.shards) == 1 {
		d.shards[0].processBatch(d, recs, nil, spans)
		return
	}
	for base := 0; base < len(recs); base += fold.BlockSize {
		end := min(base+fold.BlockSize, len(recs))
		var sp []obs.SpanRef
		if spans != nil {
			sp = spans[base:end]
		}
		for s := range d.split {
			d.split[s].Reset()
		}
		d.router.Split(recs[base:end], sp, d.split)
		for s := range d.split {
			if b := &d.split[s]; b.Len() > 0 {
				d.shards[s].processBatch(d, b.Recs, b.Masks, b.Spans)
			}
		}
	}
}

// serialFeed reports whether a sharded stream should skip the worker
// pool and apply records inline through the router: with no second
// processor the pool hop is pure overhead, and the inline path is
// bit-identical (same routing masks, same per-shard arrival order). A
// pool that is already running keeps the stream on it regardless.
func (d *Datapath) serialFeed() bool {
	return d.pool == nil && runtime.GOMAXPROCS(0) < 2
}

// Run streams a whole source through Feed and flushes: with Shards > 1
// the stream is hash-partitioned across one worker goroutine per shard
// (applied inline at GOMAXPROCS=1, where workers could not run in
// parallel); every path runs the columnar block loop. On a source error
// the records read before it stay applied and nothing is flushed.
func (d *Datapath) Run(src trace.Source) error {
	if len(d.shards) > 1 && !d.serialFeed() {
		d.startPool() // ring set-up is set-up cost: before the first read
	}
	err := trace.Blocks(src, fold.BlockSize, d.Feed)
	d.EndFeed()
	if err != nil {
		return err
	}
	d.Flush()
	return nil
}

// publishAll mirrors everything when the caller owns the datapath (no
// live pool, or just past a barrier). Used at the synchronization
// edges of every path.
func (d *Datapath) publishAll() {
	if d.obs != nil {
		d.PublishMetrics()
	}
}

// Flush evicts all cache-resident entries into the backing stores (end of
// a measurement window, or the paper's periodic refresh).
func (d *Datapath) Flush() {
	for _, sh := range d.shards {
		for _, ps := range sh.progs {
			ps.cache.Flush()
		}
	}
	// Flush already requires sole ownership of the caches (sharded
	// callers sync first), so the mirrors can be refreshed wholesale.
	d.publishAll()
}

// Feed processes a run of records without ending the window — the
// streaming half of the epoch runtime. With Shards > 1 (and a second
// processor to run workers on) a persistent worker pool is started
// lazily and records are hash-routed into it; call Sync to barrier at a
// window boundary and EndFeed when the stream ends. Feed copies records
// before returning, so callers may reuse recs.
func (d *Datapath) Feed(recs []trace.Record) {
	if len(recs) == 0 {
		return
	}
	if len(d.shards) == 1 || d.serialFeed() {
		// Inline: with metrics on, apply in pubRecs chunks so a scraper
		// sees live progress mid-feed.
		for len(recs) > 0 {
			n := len(recs)
			if d.obs != nil {
				n = min(n, pubRecs)
			}
			d.Apply(recs[:n], nil)
			d.PublishMetrics()
			recs = recs[n:]
		}
		return
	}
	d.startPool()
	d.packets += uint64(len(recs))
	d.pool.Feed(recs)
	d.publishPackets()
}

// startPool starts the streaming worker pool unless it is running.
func (d *Datapath) startPool() {
	if d.pool == nil {
		d.pool = shard.NewPool(d.routing, func(s int, b *shard.Batch) {
			d.shards[s].processBatch(d, b.Recs, b.Masks, b.Spans)
		})
		if d.obs != nil {
			d.obs.pool.Store(d.pool)
		}
	}
}

// Sync blocks until every record handed to Feed has been applied to its
// shard's stores — the per-shard half of epoch-boundary alignment. A
// no-op on the serial datapath, which applies records synchronously.
func (d *Datapath) Sync() {
	if d.pool != nil {
		d.pool.Barrier()
		d.journal.Append(obs.EvBarrier, int64(d.pool.Fed()), int64(len(d.shards)), "shard-pool")
	}
	// Past the barrier the feeder owns every shard's plain counters
	// (happens-before via the barrier WaitGroup), so refresh the
	// mirrors wholesale — the consistency point the scrape tests pin.
	d.publishAll()
}

// EndFeed stops the streaming worker pool (idempotent; a later Feed
// restarts it). Outstanding records are drained first.
func (d *Datapath) EndFeed() {
	if d.pool != nil {
		d.pool.Close()
		d.pool = nil
		if d.obs != nil {
			d.obs.pool.Store(nil)
		}
		d.publishAll()
	}
}

// Acc is a per-program accuracy snapshot at a window close. Valid/Total
// count every key since the store's last reset — the accuracy of the
// window's materialized tables (whole-run, under carry-over boundaries).
// WinValid/WinTotal count only the keys touched since the previous
// boundary — the per-window stability metric of carry-over windows,
// where a non-mergeable key that survives a boundary is window-invalid.
// Under tumbling boundaries the two scopes coincide (the store is reset
// at every close, so every key present was touched this window).
type Acc struct {
	Valid, Total       int
	WinValid, WinTotal int
}

// CloseWindow ends the current measurement window: it syncs outstanding
// fed records, flushes every cache into its backing store, materializes
// every plan table (downstream collector stages included), snapshots
// per-program accuracy, and then either resets every store for an
// independent next window (carry == false, tumbling) or carries all
// backing state across the boundary (carry == true — the paper's
// periodic SRAM refresh, where linear folds keep merging exactly because
// each new cache epoch snapshots its own first packet, and non-mergeable
// folds accumulate one epoch per boundary crossing).
//
// The returned []Acc is borrowed from the datapath and valid only until
// the next CloseWindow; callers that retain snapshots across closes must
// copy (the window scheduler does).
func (d *Datapath) CloseWindow(carry bool) (map[string]*exec.Table, []Acc, error) {
	d.Sync()
	d.Flush()
	tables, err := d.Collect()
	if err != nil {
		return nil, nil, err
	}
	if cap(d.accBuf) < len(d.plan.Programs) {
		d.accBuf = make([]Acc, len(d.plan.Programs))
	}
	acc := d.accBuf[:len(d.plan.Programs)]
	for i := range acc {
		acc[i].Valid, acc[i].Total = d.Accuracy(i)
		acc[i].WinValid, acc[i].WinTotal = d.WindowAccuracy(i)
	}
	if carry {
		d.BeginWindow()
	} else {
		d.ResetWindow()
	}
	// Re-publish after the boundary so the store-keys gauge reflects
	// the reset rather than the pre-close state until the next batch.
	d.publishAll()
	return tables, acc, nil
}

// BeginWindow restarts the window-scoped accuracy accounting of every
// backing store without touching state — the carry-over boundary.
func (d *Datapath) BeginWindow() {
	for _, sh := range d.shards {
		for _, ps := range sh.progs {
			ps.store.BeginWindow()
		}
	}
}

// ResetWindow drops all per-window state — backing stores, digest-key
// component values, mirrored select rows — so the next window starts
// from a clean slate (caches must already be empty; call Flush first).
// Rows previously materialized into tables stay valid: they were copied
// (group stages) or their slab chunks stay reachable through the emitted
// tables (select stages) until the caller drops them.
func (d *Datapath) ResetWindow() {
	for _, sh := range d.shards {
		for _, ps := range sh.progs {
			ps.store.Reset()
			if ps.keyVals != nil {
				clear(ps.keyVals)
			}
		}
		for i := range sh.selRows {
			sh.selRows[i] = sh.selRows[i][:0]
		}
	}
}

// Tables materializes every switch-resident stage's result from the
// backing stores (call Flush first). Per-shard partial tables are
// disjoint (each key is owned by exactly one shard), so the merge is a
// concatenation followed by the deterministic total-order sort. For
// programs whose fold is not mergeable, only valid (single-epoch) keys
// appear — the accuracy semantics of §3.2.
func (d *Datapath) Tables() map[string]*exec.Table {
	out := map[string]*exec.Table{}
	for si, st := range d.selStgs {
		var rows [][]float64
		for _, sh := range d.shards {
			rows = append(rows, sh.selRows[si]...)
		}
		t := &exec.Table{Schema: st.Schema, Rows: rows}
		t.Sort()
		out[st.Name] = t
	}
	for pi, sp := range d.plan.Programs {
		nk := sp.Key.NumComponents()
		// Pre-size from the stores' key counts and build rows in per-member
		// slabs: two allocations per member instead of one per row.
		total := 0
		for _, sh := range d.shards {
			total += sh.progs[pi].store.Len()
		}
		memberRows := d.tscr.memberRows(len(sp.Members), total)
		slabs := d.tscr.slabHeaders(len(sp.Members))
		var keyed [][]keyedRef
		// Packed keys are big-endian per component, so byte order equals
		// the float-lexicographic row order Table.Sort produces — as long
		// as every component is non-negative (two's-complement bytes
		// would order negatives last). Sort by the two key words then:
		// two integer compares per comparison instead of a column walk.
		byKey := sp.Key.Packed
		if byKey {
			keyed = d.tscr.keyedRefs(len(sp.Members), total)
		}
		for mi, st := range sp.Members {
			// Slab backing arrays escape into the emitted rows — only the
			// header slice is scratch.
			slabs[mi] = make([]float64, 0, total*(nk+len(st.Out)))
		}
		for _, sh := range d.shards {
			ps := sh.progs[pi]
			ps.store.Range(func(key packet.Key128, state []float64) bool {
				var kv [8]float64
				if ps.keyVals != nil {
					copy(kv[:nk], ps.keyVals[key])
				} else {
					sp.Key.Unpack(key, kv[:nk])
				}
				if byKey {
					for _, v := range kv[:nk] {
						if v < 0 {
							byKey = false // fall back to the column sort
							break
						}
					}
				}
				for mi, st := range sp.Members {
					if pidx := sp.PresIdx[mi]; pidx >= 0 && state[pidx] <= 0 {
						continue // no record of this member's query saw the key
					}
					mstate := state[sp.Offsets[mi] : sp.Offsets[mi]+st.Fold.StateLen()]
					slab := slabs[mi]
					start := len(slab)
					slab = append(slab, kv[:nk]...)
					slab = exec.AppendOutCols(st, mstate, slab)
					slabs[mi] = slab
					row := slab[start:len(slab):len(slab)]
					memberRows[mi] = append(memberRows[mi], row)
					if keyed != nil {
						keyed[mi] = append(keyed[mi], keyedRef{
							k0:  binary.BigEndian.Uint64(key[0:8]),
							k1:  binary.BigEndian.Uint64(key[8:16]),
							idx: int32(len(memberRows[mi]) - 1),
						})
					}
				}
				return true
			})
		}
		for mi, st := range sp.Members {
			t := &exec.Table{Schema: st.Schema, Rows: memberRows[mi]}
			if byKey {
				refs := keyed[mi]
				slices.SortFunc(refs, func(a, b keyedRef) int {
					switch {
					case a.k0 != b.k0:
						if a.k0 < b.k0 {
							return -1
						}
						return 1
					case a.k1 != b.k1:
						if a.k1 < b.k1 {
							return -1
						}
						return 1
					default:
						return 0
					}
				})
				sorted := make([][]float64, len(refs))
				for i := range refs {
					sorted[i] = t.Rows[refs[i].idx]
				}
				t.Rows = sorted
			} else {
				// The gather buffer escapes as the table's row slice; drop
				// it from the scratch so the next close allocates fresh.
				d.tscr.rows[mi] = nil
				t.Sort()
			}
			out[st.Name] = t
		}
	}
	return out
}

// keyedRef pairs a group row's index with its packed key words — the
// 24-byte sort element of the integer-keyed sort in Tables (rows are
// gathered once afterwards, so swaps move 24 bytes, not row headers).
type keyedRef struct {
	k0, k1 uint64
	idx    int32
}

// tablesScratch is Tables' reusable per-close materialization scratch —
// the gather/sort buffers whose contents die inside one Tables call (the
// rows themselves escape into the emitted tables and stay per-close
// allocations). Buffers are shared across programs within a call and
// across calls; reset-to-empty keeps capacity, so steady-state closes
// stop paying the gather allocations that dominated the close path. The
// emptied buffers keep the previous window's row pointers alive in their
// capacity tail until overwritten — bounded by one window's row count.
type tablesScratch struct {
	rows  [][][]float64 // per-member row gather (handed off on the column-sort path)
	keyed [][]keyedRef  // per-member integer-sort refs
	slabs [][]float64   // per-member slab headers (backing arrays escape)
}

// memberRows returns n empty row-gather buffers with capacity ≥ total.
func (ts *tablesScratch) memberRows(n, total int) [][][]float64 {
	for len(ts.rows) < n {
		ts.rows = append(ts.rows, nil)
	}
	ts.rows = ts.rows[:n]
	for i, r := range ts.rows {
		if cap(r) < total {
			r = make([][]float64, 0, total)
		}
		ts.rows[i] = r[:0]
	}
	return ts.rows
}

// keyedRefs returns n empty sort-ref buffers with capacity ≥ total.
func (ts *tablesScratch) keyedRefs(n, total int) [][]keyedRef {
	for len(ts.keyed) < n {
		ts.keyed = append(ts.keyed, nil)
	}
	ts.keyed = ts.keyed[:n]
	for i, r := range ts.keyed {
		if cap(r) < total {
			r = make([]keyedRef, 0, total)
		}
		ts.keyed[i] = r[:0]
	}
	return ts.keyed
}

// slabHeaders returns n zeroed slab header slots.
func (ts *tablesScratch) slabHeaders(n int) [][]float64 {
	for len(ts.slabs) < n {
		ts.slabs = append(ts.slabs, nil)
	}
	s := ts.slabs[:n]
	for i := range s {
		s[i] = nil
	}
	return s
}

// RangeMember iterates every key of program pi's member mi across all
// shards, yielding the 128-bit store key, the resolved key component
// values, the member's raw state slice within the fused program state,
// and whether the backing store trusts the value for the full window.
// Invalid keys (multi-epoch keys of a non-mergeable fold) are reported
// with a nil state. Keys the member never saw (presence counter zero in a
// multi-member store) are skipped. This is the state-level read the
// network-wide fabric collector reconciles across switches; Tables is the
// projected single-switch view of the same data.
func (d *Datapath) RangeMember(pi, mi int, fn func(key packet.Key128, keyVals, state []float64, valid bool) bool) {
	sp := d.plan.Programs[pi]
	st := sp.Members[mi]
	m := st.Fold.StateLen()
	off := sp.Offsets[mi]
	pidx := sp.PresIdx[mi]
	nk := sp.Key.NumComponents()
	for _, sh := range d.shards {
		ps := sh.progs[pi]
		cont := true
		ps.store.RangeAll(func(key packet.Key128, state []float64, valid bool) bool {
			if valid && pidx >= 0 && state[pidx] <= 0 {
				return true // no record of this member's query saw the key
			}
			var kv [8]float64
			if ps.keyVals != nil {
				copy(kv[:nk], ps.keyVals[key])
			} else {
				sp.Key.Unpack(key, kv[:nk])
			}
			var ms []float64
			if valid {
				ms = state[off : off+m]
			}
			cont = fn(key, kv[:nk], ms, valid)
			return cont
		})
		if !cont {
			return
		}
	}
}

// SelectRows returns the mirrored rows of a select-over-T stage by name,
// concatenated across shards (a multiset; callers sort after merging).
// Nil if the stage is not a select over T.
func (d *Datapath) SelectRows(name string) [][]float64 {
	for si, st := range d.selStgs {
		if st.Name != name {
			continue
		}
		var rows [][]float64
		for _, sh := range d.shards {
			rows = append(rows, sh.selRows[si]...)
		}
		return rows
	}
	return nil
}

// Collect runs the collector: downstream stages evaluated over the
// switch-materialized tables, returning every stage's table.
func (d *Datapath) Collect() (map[string]*exec.Table, error) {
	eng := exec.New(d.plan)
	for name, t := range d.Tables() {
		eng.SetTable(name, t)
	}
	return eng.Finish()
}

// Stats reports per-program cache statistics, aggregated across shards.
func (d *Datapath) Stats() []kvstore.Stats {
	out := make([]kvstore.Stats, len(d.plan.Programs))
	for _, sh := range d.shards {
		for i, ps := range sh.progs {
			out[i] = out[i].Add(ps.cache.Stats())
		}
	}
	return out
}

// StoreStats reports per-program backing-store statistics, aggregated
// across shards.
func (d *Datapath) StoreStats() []backing.Stats {
	out := make([]backing.Stats, len(d.plan.Programs))
	for _, sh := range d.shards {
		for i, ps := range sh.progs {
			out[i] = out[i].Add(ps.store.Stats())
		}
	}
	return out
}

// Accuracy returns (valid, total) key counts for program i — Figure 6's
// metric for non-mergeable folds — summed over shards (keys are disjoint
// across shards, so the sums are exact counts).
func (d *Datapath) Accuracy(i int) (valid, total int) {
	for _, sh := range d.shards {
		v, t := sh.progs[i].store.Accuracy()
		valid += v
		total += t
	}
	return valid, total
}

// WindowAccuracy returns (valid, total) counts over the keys program i's
// backing stores were touched for since the last window boundary — the
// per-window stability metric of carry-over windows: a key of a
// non-mergeable fold that survives a boundary counts window-invalid even
// though each of its per-epoch values is correct over its own interval.
// Under tumbling windows this coincides with Accuracy.
func (d *Datapath) WindowAccuracy(i int) (valid, total int) {
	for _, sh := range d.shards {
		v, t := sh.progs[i].store.WindowAccuracy()
		valid += v
		total += t
	}
	return valid, total
}

// RunPlan is the one-call pipeline: datapath over src, then the collector.
func RunPlan(plan *compiler.Plan, src trace.Source, cfg Config) (map[string]*exec.Table, error) {
	d, err := New(plan, cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Run(src); err != nil {
		return nil, err
	}
	return d.Collect()
}
