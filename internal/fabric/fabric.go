// Package fabric deploys a compiled query across a whole network: one
// independent switch datapath (cache + backing store, §3's co-design)
// per physical switch of a topology, fed by demultiplexing the record
// stream on the switch half of each record's queue ID, plus a collector
// that reconciles the per-switch backing stores into network-wide
// results.
//
// The paper places its programmable key-value store on each switch; a
// network of switches therefore holds one independent store per switch
// for every query, and a key whose GROUPBY excludes the switch (a flow
// key, say) accumulates state on every switch its packets traverse. The
// collector's job is the spatial analogue of §3.2's temporal merge:
//
//   - Keys that include the switch dimension (qid or switch in the
//     GROUPBY) live on exactly one switch; the network-wide table is the
//     disjoint union of per-switch tables — exact for every fold.
//   - Commutative folds (identity-A linear updates with packet-pure B:
//     COUNT, SUM, AVG's pair) and associative folds (MAX/MIN) merge
//     per-switch states exactly regardless of how the sub-streams
//     interleaved in time.
//   - Everything else gets epoch-in-space semantics: a key observed by
//     more than one switch has no sound network-wide value (an EWMA's
//     trajectory depends on the global packet interleaving, which the
//     per-switch states cannot reconstruct), so such keys are dropped
//     from the network table and counted against spatial accuracy —
//     exactly how §3.2 treats multi-epoch keys in time. Per-switch
//     tables remain exact; queries wanting network-wide answers for
//     such folds include switch or qid in their key.
//
// The total cache SRAM budget is divided evenly across switches, so a
// fabric run occupies the same silicon operating point as the
// single-switch baseline it is compared against.
package fabric

import (
	"fmt"
	"runtime"
	"time"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/kvstore"
	"perfq/internal/obs"
	"perfq/internal/shard"
	"perfq/internal/switchsim"
	"perfq/internal/topo"
	"perfq/internal/trace"
)

// batch is the records-per-ring-slot granularity of the parallel run
// (see internal/shard for the sizing rationale; each per-switch ring
// holds shard's ringDepth slots).
const batch = 256

// Config configures a fabric deployment.
type Config struct {
	// Switch is the per-switch datapath template. Its Geometry is the
	// TOTAL cache budget for the whole fabric, divided evenly across
	// switches (zero selects the paper's 2^18-pair 8-way point); Shards
	// shards each switch's datapath internally.
	Switch switchsim.Config
	// Serial disables the per-switch worker goroutines in Run and Feed
	// (they are also bypassed automatically when GOMAXPROCS is 1).
	Serial bool
}

// Fabric is a deployed query: one datapath per switch plus the collector.
type Fabric struct {
	plan  *compiler.Plan
	topo  *topo.Topology
	cfg   Config
	swGeo kvstore.Geometry // each switch's actual cache slice
	ids   []uint16
	dps   map[uint16]*switchsim.Datapath

	// widx is the per-record routing table, dense over switch ID so the
	// hot loops index a slice instead of probing a map (the map lookup
	// was ~20% of the serial replay): widx[sw] is the switch's pump
	// worker index (-1 for IDs outside the topology), and sws[widx[sw]]
	// its datapath.
	widx []int32
	sws  []*switchsim.Datapath

	// inline holds the serial path's per-switch batches, demuxed exactly
	// as the pump's ring slots are.
	inline []shard.Batch

	packets  uint64
	unrouted uint64
	accBuf   []switchsim.Acc // CloseWindow's reused snapshot (borrowed by callers)

	// pump is the persistent worker-per-switch feeder of the streaming /
	// windowed path (nil when idle or serial): a shard.Workers transport
	// demuxed by switch ID, whose Barrier aligns epoch boundaries across
	// the fabric.
	pump *shard.Workers

	// Sampled tracing at the demux (nil tracer ⇒ trMask == obs.NoSample
	// and the feed path is unchanged). The demux samples on the
	// five-tuple key, the network-wide flow identity; per-switch group
	// keys are sampled again at each switch's cache either way.
	tr      *obs.Tracer
	trMask  uint64
	journal *obs.Journal

	// Collector memoization (Run → Collect → Accuracy read the same
	// reconciliation).
	netTabs map[string]*exec.Table
	netAcc  []Accuracy

	obs *fabObs // fabric-level metric mirrors (nil = off)
}

// serialPath reports whether records should bypass the pump and be
// applied inline: configured serial, a single switch, or no second
// processor to run a worker on (the pump hop at GOMAXPROCS=1 is pure
// overhead — the PR 5 regression). A pump that is already running keeps
// the stream on it regardless, so mid-stream GOMAXPROCS changes cannot
// split one window across the two paths.
func (f *Fabric) serialPath() bool {
	if f.pump != nil {
		return false
	}
	return f.cfg.Serial || len(f.ids) == 1 || runtime.GOMAXPROCS(0) < 2
}

// startPump launches the per-switch workers. Each worker hands its ring
// slot's batch — records plus, when tracing, the demux's spans — to its
// switch datapath's block loop (a sharded switch applies it through its
// inline routed path; no pool nests inside the pump). With metrics
// enabled the worker times its batch, then publishes its datapath's
// mirrors — the worker is the sole owner of that switch's plain
// counters, so the batch boundary is the race-free publication point.
func (f *Fabric) startPump() {
	var tm *obs.TransportMetrics
	consume := func(i int, b *shard.Batch) { f.sws[i].Apply(b.Recs, b.Spans) }
	if o := f.obs; o != nil {
		tm = o.tm
		consume = func(i int, b *shard.Batch) {
			t0 := time.Now()
			f.sws[i].Apply(b.Recs, b.Spans)
			o.swNs[i].Record(uint64(time.Since(t0)))
			f.sws[i].PublishMetrics()
		}
	}
	f.pump = shard.NewWorkers(len(f.ids), batch, tm, f.tr != nil, consume)
	if f.obs != nil {
		f.obs.pump.Store(f.pump)
	}
}

// demux returns the pump index of rec's switch and counts the record
// routed, or returns -1 and counts it unrouted when its switch ID is
// outside the topology.
func (f *Fabric) demux(rec *trace.Record) int {
	sw := rec.QID.Switch()
	if int(sw) >= len(f.widx) || f.widx[sw] < 0 {
		f.unrouted++
		return -1
	}
	f.packets++
	return int(f.widx[sw])
}

// feed routes one record into the pump's batches (copying it), beginning
// its span when the demux samples it.
func (f *Fabric) feed(rec *trace.Record) {
	w := f.demux(rec)
	if w < 0 {
		return
	}
	var span obs.SpanRef
	if f.trMask != obs.NoSample {
		if key := compiler.FiveTupleKey(rec); key.Hash()&f.trMask == 0 {
			span = f.tr.Begin(w, key, obs.HopRoute, obs.OutcomeOK)
		}
	}
	f.pump.Feed(w, rec, 0, span)
}

// applyInline is the serial path: it demuxes recs into per-switch
// batches of up to the pump's batch size and applies each through its
// switch datapath's block loop on the calling goroutine — the pump's
// per-switch arrival order, without the hop.
func (f *Fabric) applyInline(recs []trace.Record) {
	if f.inline == nil {
		f.inline = shard.NewBatches(len(f.ids), batch, false)
	}
	for base := 0; base < len(recs); base += batch {
		for i := base; i < min(base+batch, len(recs)); i++ {
			if w := f.demux(&recs[i]); w >= 0 {
				f.inline[w].Push(&recs[i], 0, obs.SpanRef{})
			}
		}
		for w := range f.inline {
			if b := &f.inline[w]; b.Len() > 0 {
				f.sws[w].Apply(b.Recs, nil)
				b.Reset()
			}
		}
	}
}

// Feed processes a run of records without ending the window. When a
// second processor is available (and the fabric is not Serial), a
// persistent worker-per-switch pump is started lazily; call Sync to
// barrier at a window boundary and EndFeed when the stream ends. Records
// are copied before Feed returns.
func (f *Fabric) Feed(recs []trace.Record) {
	if f.serialPath() {
		f.applyInline(recs)
		f.publishFab()
		return
	}
	if f.pump == nil {
		f.startPump()
	}
	if o := f.obs; o != nil {
		t0 := time.Now()
		for i := range recs {
			f.feed(&recs[i])
		}
		o.demuxNs.Record(uint64(time.Since(t0)))
		f.publishFab()
		return
	}
	for i := range recs {
		f.feed(&recs[i])
	}
}

// Sync blocks until every switch's worker has applied all records fed so
// far — per-switch arrival order is preserved by the single feeder, so
// state trajectories stay bit-identical to a serial replay.
func (f *Fabric) Sync() {
	if f.pump != nil {
		f.pump.Barrier()
		f.journal.Append(obs.EvBarrier, int64(f.packets), int64(len(f.ids)), "fabric-pump")
	}
	f.publishFab()
}

// EndFeed drains and stops the pump (idempotent; a later Feed restarts
// it).
func (f *Fabric) EndFeed() {
	if f.pump != nil {
		f.pump.Close()
		f.pump = nil
		if f.obs != nil {
			f.obs.pump.Store(nil)
		}
		f.publishFab()
	}
}

// CloseWindow ends the current measurement window network-wide: it
// barriers the pump so every switch has applied the window's records
// (epoch boundaries are aligned in record order across the fabric),
// flushes every switch's caches, runs the collector merge over the
// per-switch backing stores for this window, snapshots the network-wide
// spatial accuracy, and then resets every switch's stores (tumbling) or
// carries them across the boundary (carry == true).
//
// As with the single-switch datapath, the returned []Acc is borrowed and
// valid only until the next CloseWindow; retaining callers must copy.
func (f *Fabric) CloseWindow(carry bool) (map[string]*exec.Table, []switchsim.Acc, error) {
	f.Sync()
	f.Flush()
	tables, err := f.Collect()
	if err != nil {
		return nil, nil, err
	}
	if cap(f.accBuf) < len(f.plan.Programs) {
		f.accBuf = make([]switchsim.Acc, len(f.plan.Programs))
	}
	acc := f.accBuf[:len(f.plan.Programs)]
	for i := range acc {
		acc[i] = switchsim.Acc{}
	}
	for i := range acc {
		acc[i].Valid, acc[i].Total = f.netAcc[i].Valid, f.netAcc[i].Total
		// The window-scoped counts are backing-store level (keys touched
		// since the previous boundary, summed across switches) — the
		// within-switch temporal stability metric; the spatial merge has
		// no per-window notion of its own.
		for _, id := range f.ids {
			wv, wt := f.dps[id].WindowAccuracy(i)
			acc[i].WinValid += wv
			acc[i].WinTotal += wt
		}
	}
	for _, id := range f.ids {
		dp := f.dps[id]
		if carry {
			dp.BeginWindow()
		} else {
			dp.ResetWindow()
		}
		// Post-barrier the closer owns every switch's counters; refresh
		// the mirrors so store gauges reflect the boundary.
		dp.PublishMetrics()
	}
	if !carry {
		// The memoized reconciliation describes the closed window, not the
		// now-empty stores.
		f.netTabs, f.netAcc = nil, nil
	}
	return tables, acc, nil
}

// New deploys a plan across every switch of a topology. Switch ID 0 —
// the host-NIC pseudo switch whose queues model sending NICs — gets a
// datapath like any other, so every record of the stream is owned by
// exactly one store.
func New(plan *compiler.Plan, t *topo.Topology, cfg Config) (*Fabric, error) {
	if t == nil {
		return nil, fmt.Errorf("fabric: nil topology")
	}
	ids := t.SwitchIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("fabric: topology has no queues")
	}
	if cfg.Switch.Geometry == (kvstore.Geometry{}) {
		cfg.Switch.Geometry = kvstore.SetAssociative(1<<18, 8)
	}
	swCfg := cfg.Switch
	swCfg.Geometry = cfg.Switch.Geometry.Split(len(ids))
	f := &Fabric{
		plan: plan, topo: t, cfg: cfg, swGeo: swCfg.Geometry,
		ids: ids, dps: make(map[uint16]*switchsim.Datapath, len(ids)),
		tr:      cfg.Switch.Trace,
		trMask:  cfg.Switch.Trace.HashMask(),
		journal: cfg.Switch.Journal,
	}
	if cfg.Switch.Metrics != nil {
		names := make([]string, len(ids))
		for i, id := range ids {
			names[i] = t.SwitchName(id)
		}
		f.obs = newFabObs(cfg.Switch.Metrics, cfg.Switch.MetricsLabels, names)
	}
	for _, id := range ids {
		// Each switch's datapath registers its families under its own
		// switch label — the /debug/perfq per-switch drill-down.
		if swCfg.Metrics != nil {
			swCfg.MetricsLabels = obs.JoinLabels(cfg.Switch.MetricsLabels,
				`switch="`+t.SwitchName(id)+`"`)
		}
		dp, err := switchsim.New(plan, swCfg)
		if err != nil {
			return nil, fmt.Errorf("fabric: switch %d (%s): %w", id, t.SwitchName(id), err)
		}
		f.dps[id] = dp
	}
	maxID := ids[0]
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	f.widx = make([]int32, int(maxID)+1)
	for i := range f.widx {
		f.widx[i] = -1
	}
	f.sws = make([]*switchsim.Datapath, len(ids))
	for i, id := range ids {
		f.widx[id] = int32(i)
		f.sws[i] = f.dps[id]
	}
	return f, nil
}

// Switches returns the hardware switch IDs hosting a datapath, ascending.
func (f *Fabric) Switches() []uint16 { return f.ids }

// SwitchName names a switch for reports ("leaf0", "hostnic", …).
func (f *Fabric) SwitchName(sw uint16) string { return f.topo.SwitchName(sw) }

// Datapath returns the datapath deployed on a switch (nil if unknown).
func (f *Fabric) Datapath(sw uint16) *switchsim.Datapath { return f.dps[sw] }

// SwitchGeometry returns the cache slice each switch actually received —
// the configured total after Split, which rounds bucket counts down to a
// power of two (so Pairs()·len(Switches()) may be below the budget, never
// above it).
func (f *Fabric) SwitchGeometry() kvstore.Geometry { return f.swGeo }

// Packets returns how many records the fabric has routed to a switch.
func (f *Fabric) Packets() uint64 { return f.packets }

// Unrouted returns how many records carried a switch ID absent from the
// topology (skipped; a trace/topology mismatch).
func (f *Fabric) Unrouted() uint64 { return f.unrouted }

// Process routes one record to its owning switch's datapath, inline on
// the calling goroutine.
func (f *Fabric) Process(rec *trace.Record) {
	if w := f.demux(rec); w >= 0 {
		f.sws[w].Process(rec)
	}
}

// Run streams a whole source through Feed and flushes every switch.
// When a second processor is available (and Config.Serial is unset),
// one worker goroutine per switch drains its SPSC ring of record
// batches, filled by a single demultiplexing feeder (the same pump the
// windowed runtime barriers at epoch boundaries) — per-switch arrival
// order (and therefore every store's state trajectory) is identical to
// the serial path, so the two modes produce bit-identical results. At
// GOMAXPROCS=1 records are demuxed and applied inline instead: the pump
// hop costs throughput and can buy no parallelism.
func (f *Fabric) Run(src trace.Source) error {
	if f.pump == nil && !f.serialPath() {
		f.startPump() // ring set-up is set-up cost: before the first read
	}
	err := trace.Blocks(src, batch, f.Feed)
	f.EndFeed()
	if err != nil {
		return err
	}
	f.Flush()
	return nil
}

// Flush evicts every switch's cache-resident entries into its backing
// stores and invalidates any memoized collector state.
func (f *Fabric) Flush() {
	for _, id := range f.ids {
		f.dps[id].Flush()
	}
	f.netTabs, f.netAcc = nil, nil
	f.publishFab()
}

// sources lists the per-switch state sources in switch-ID order — the
// fixed reconciliation order both the datapath and the ground-truth
// collector use, so their float arithmetic associates identically.
func (f *Fabric) sources() []switchSource {
	srcs := make([]switchSource, len(f.ids))
	for i, id := range f.ids {
		srcs[i] = f.dps[id]
	}
	return srcs
}

// NetworkTables reconciles the per-switch backing stores into
// network-wide tables for every switch-resident stage (call after Run,
// or Flush first). The result is memoized until the next Flush.
func (f *Fabric) NetworkTables() map[string]*exec.Table {
	if f.netTabs == nil {
		if f.obs != nil {
			t0 := time.Now()
			f.netTabs, f.netAcc = networkTables(f.plan, f.sources())
			f.obs.mergeNs.Record(uint64(time.Since(t0)))
		} else {
			f.netTabs, f.netAcc = networkTables(f.plan, f.sources())
		}
	}
	return f.netTabs
}

// Collect runs the full collector: network-wide reconciliation of the
// switch-resident stages, then the downstream (off-switch) stages over
// the merged tables. It returns every stage's table.
func (f *Fabric) Collect() (map[string]*exec.Table, error) {
	eng := exec.New(f.plan)
	for name, t := range f.NetworkTables() {
		eng.SetTable(name, t)
	}
	return eng.Finish()
}

// SwitchTables materializes the full plan from one switch's stores alone
// — the per-switch view of the query (downstream stages evaluated over
// that switch's tables).
func (f *Fabric) SwitchTables(sw uint16) (map[string]*exec.Table, error) {
	dp, ok := f.dps[sw]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown switch %d", sw)
	}
	return dp.Collect()
}

// Accuracy returns network-wide (valid, total) key counts for switch
// program i, summed over the program's members: a key is invalid if any
// switch's store holds an untrustworthy value for it, or if it was
// observed by multiple switches under a fold with no sound spatial merge
// — the spatial extension of Figure 6's metric.
func (f *Fabric) Accuracy(i int) (valid, total int) {
	f.NetworkTables()
	return f.netAcc[i].Valid, f.netAcc[i].Total
}

// Stats sums per-program cache statistics across all switches.
func (f *Fabric) Stats() []kvstore.Stats {
	out := make([]kvstore.Stats, len(f.plan.Programs))
	for _, id := range f.ids {
		for i, s := range f.dps[id].Stats() {
			out[i] = out[i].Add(s)
		}
	}
	return out
}

// RunPlan is the one-call pipeline: fabric over src, then the collector.
func RunPlan(plan *compiler.Plan, t *topo.Topology, src trace.Source, cfg Config) (map[string]*exec.Table, error) {
	f, err := New(plan, t, cfg)
	if err != nil {
		return nil, err
	}
	if err := f.Run(src); err != nil {
		return nil, err
	}
	return f.Collect()
}
