package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"perfq"
	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fabric"
	"perfq/internal/kvstore"
	"perfq/internal/netstore"
	"perfq/internal/switchsim"
	"perfq/internal/trace"
	"perfq/internal/window"
)

// span is one timed call into a layer. Spans nest on the one goroutine
// that drives the pipeline, so a span's children never overlap.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the span list, -1 for a root
	Run    int32  `json:"run"`
}

// recorder keeps a traced run's spans in memory until they are written
// out at exit.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int32
	run   int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string) {
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.open = append(r.open, int32(len(r.spans)))
	r.spans = append(r.spans, span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Run: r.run})
}

func (r *recorder) end() {
	i := r.open[len(r.open)-1]
	r.open = r.open[:len(r.open)-1]
	r.spans[i].End = int64(time.Since(r.epoch))
}

func (r *recorder) do(name string, fn func()) {
	r.begin(name)
	fn()
	r.end()
}

// writeJSON writes every recorded span.
func (r *recorder) writeJSON(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerOf names the layer a span belongs to: the module name before the
// first dot. The roots ("setup", "run") belong to none.
func layerOf(name string) string {
	layer, _, ok := strings.Cut(name, ".")
	if !ok {
		return ""
	}
	return layer
}

// decodeChunk is the records decoded per trace.decode span.
const decodeChunk = 4096

// chunkSource decodes a capture one chunk per trace.decode span. The
// single-window pipeline feeds whole chunks; the windowed runtime reads
// it record by record through Next.
type chunkSource struct {
	r      *trace.Reader
	rec    *recorder
	buf    []trace.Record
	pos, n int
}

func newChunkSource(pqt []byte, rec *recorder) (*chunkSource, error) {
	r, err := trace.NewReader(bytes.NewReader(pqt))
	if err != nil {
		return nil, err
	}
	return &chunkSource{r: r, rec: rec, buf: make([]trace.Record, decodeChunk)}, nil
}

func (c *chunkSource) fill() (int, error) {
	c.rec.begin("trace.decode")
	defer c.rec.end()
	c.n, c.pos = 0, 0
	for c.n < len(c.buf) {
		err := c.r.Next(&c.buf[c.n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return c.n, err
		}
		c.n++
	}
	return c.n, nil
}

func (c *chunkSource) Next(rec *trace.Record) error {
	if c.pos == c.n {
		n, err := c.fill()
		if err != nil {
			return err
		}
		if n == 0 {
			return io.EOF
		}
	}
	*rec = c.buf[c.pos]
	c.pos++
	return nil
}

// engine is what the traced pipeline calls on a single datapath
// (*switchsim.Datapath) or a whole fabric (*fabric.Fabric).
type engine interface {
	Feed(recs []trace.Record)
	Sync()
	EndFeed()
	Flush()
	Collect() (map[string]*exec.Table, error)
	Stats() []kvstore.Stats
	Accuracy(i int) (valid, total int)
}

// datapaths lists the switch datapaths behind an engine.
func datapaths(eng engine) []*switchsim.Datapath {
	switch e := eng.(type) {
	case *switchsim.Datapath:
		return []*switchsim.Datapath{e}
	case *fabric.Fabric:
		var out []*switchsim.Datapath
		for _, sw := range e.Switches() {
			out = append(out, e.Datapath(sw))
		}
		return out
	}
	return nil
}

// tracedRunner is a window.Runner decorator that times every call into
// the engine and splits a window close into its public steps: Sync,
// Flush, Collect, accuracy, and the reset (or carry) of every store.
type tracedRunner struct {
	eng         engine
	rec         *recorder
	plan        *compiler.Plan
	feedSpan    string
	collectSpan string
	acc         []switchsim.Acc

	keys, merges uint64 // backing keys and merges, summed over closes
}

func (t *tracedRunner) Feed(recs []trace.Record) {
	t.rec.begin(t.feedSpan)
	t.eng.Feed(recs)
	t.rec.end()
}

func (t *tracedRunner) EndFeed() { t.rec.do("shard.end", t.eng.EndFeed) }

// flushAndCollect is the part of a close every window shares: barrier,
// flush into backing, and materialize every stage.
func (t *tracedRunner) flushAndCollect() (map[string]*exec.Table, error) {
	t.rec.do("shard.sync", t.eng.Sync)
	t.rec.do("backing.flush", t.eng.Flush)
	for _, dp := range datapaths(t.eng) {
		for _, s := range dp.StoreStats() {
			t.keys += uint64(s.Keys)
			t.merges += s.Merges
		}
	}
	t.rec.begin(t.collectSpan)
	defer t.rec.end()
	return t.eng.Collect()
}

func (t *tracedRunner) CloseWindow(carry bool) (map[string]*exec.Table, []switchsim.Acc, error) {
	t.rec.begin("window.close")
	defer t.rec.end()
	tables, err := t.flushAndCollect()
	if err != nil {
		return nil, nil, err
	}
	dps := datapaths(t.eng)
	t.rec.do("backing.accuracy", func() {
		t.acc = t.acc[:0]
		for i := range t.plan.Programs {
			var a switchsim.Acc
			a.Valid, a.Total = t.eng.Accuracy(i)
			for _, dp := range dps {
				wv, wt := dp.WindowAccuracy(i)
				a.WinValid += wv
				a.WinTotal += wt
			}
			t.acc = append(t.acc, a)
		}
	})
	t.rec.do("backing.reset", func() {
		for _, dp := range dps {
			if carry {
				dp.BeginWindow()
			} else {
				dp.ResetWindow()
			}
		}
	})
	return tables, t.acc, nil
}

// closeRun ends a single-window run the way Query.Run does: drain the
// feed, flush, collect.
func (t *tracedRunner) closeRun() (map[string]*exec.Table, error) {
	t.rec.begin("window.close")
	defer t.rec.end()
	t.rec.do("shard.sync", t.eng.Sync)
	t.EndFeed()
	tables, err := t.flushAndCollect()
	return tables, err
}

// tracedSample is one traced run, read back from its spans and the
// layers' own counters.
type tracedSample struct {
	records int
	wall    time.Duration            // the run span: first decode to last format
	self    map[string]time.Duration // layer → self time within the run span
	total   map[string]time.Duration // span name → summed duration
	closes  []time.Duration          // window.close spans

	cache                   kvstore.Stats
	keys, merges            uint64
	unrouted                uint64
	offered, acked, dropped uint64
	tables                  []map[string]*perfq.Table
}

// runLabel marks the CPU-profile samples taken inside a run span.
var runLabel = pprof.WithLabels(context.Background(), pprof.Labels("perfbench", "run"))

// runTraced builds the workload's pipeline from each layer's public
// functions — New, chunked Feed, Sync, Flush, Collect, as Query.Run and
// Query.Stream assemble it — and times every call into a layer. With
// label set, the run span's CPU samples carry runLabel.
func runTraced(w *workload, in *input, rec *recorder, label bool) (*tracedSample, error) {
	freshHeap()
	rec.run++
	first := len(rec.spans)

	rec.begin("setup")
	rec.begin("compiler.compile")
	q, err := perfq.Compile(w.query)
	rec.end()
	if err != nil {
		return nil, err
	}
	plan := q.Plan()
	tp, err := w.topology()
	if err != nil {
		return nil, err
	}
	cfg := switchsim.Config{Shards: w.shards}
	if w.pairs > 0 {
		cfg.Geometry = kvstore.SetAssociative(w.pairs, w.ways)
	}
	var pools []*netstore.Pool
	if w.pool > 0 {
		rec.begin("netstore.dial")
		cluster, err := q.ServeBackingStores(w.pool)
		if err != nil {
			return nil, fmt.Errorf("start backing stores: %w", err)
		}
		defer cluster.Close()
		for i, prog := range plan.Programs {
			p, err := netstore.DialPool(cluster.Addrs(), prog.Fold, netstore.PoolConfig{
				Client:     netstore.Options{Program: i},
				QueueDepth: poolQueueDepth,
			})
			if err != nil {
				return nil, fmt.Errorf("dial backing pool: %w", err)
			}
			defer p.Close()
			pools = append(pools, p)
		}
		rec.end()
		cfg.OnEvict = func(prog int, ev *kvstore.Eviction) { pools[prog].HandleEviction(ev) }
	}
	tr := &tracedRunner{rec: rec, plan: plan, feedSpan: "switchsim.feed", collectSpan: "exec.collect"}
	rec.begin("switchsim.new")
	if tp != nil {
		tr.eng, err = fabric.New(plan, tp, fabric.Config{Switch: cfg})
		tr.feedSpan, tr.collectSpan = "fabric.feed", "fabric.collect"
	} else {
		tr.eng, err = switchsim.New(plan, cfg)
	}
	rec.end()
	rec.end() // setup
	if err != nil {
		return nil, err
	}

	src, err := newChunkSource(in.pqt, rec)
	if err != nil {
		return nil, err
	}
	names := q.Results()
	var got []map[string]*exec.Table
	format := func(tabs map[string]*exec.Table) {
		rec.begin("exec.format")
		for _, name := range names {
			t := tabs[name]
			(&perfq.Table{Schema: t.Schema, Rows: t.Rows}).Format(io.Discard, 0)
		}
		rec.end()
		got = append(got, tabs)
	}

	if label {
		pprof.SetGoroutineLabels(runLabel)
	}
	rec.begin("run")
	if w.window > 0 {
		_, err = window.Stream(src, window.Spec{Count: w.window}, tr, func(r *window.Result) error {
			format(r.Tables)
			return nil
		})
	} else {
		err = tr.runSingle(src, pools, format)
	}
	rec.end()
	if label {
		pprof.SetGoroutineLabels(context.Background())
	}
	if err != nil {
		return nil, err
	}

	s := &tracedSample{records: in.records, keys: tr.keys, merges: tr.merges}
	s.readSpans(rec.spans[first:], first)
	for _, st := range tr.eng.Stats() {
		s.cache = s.cache.Add(st)
	}
	if f, ok := tr.eng.(*fabric.Fabric); ok {
		s.unrouted = f.Unrouted()
	}
	for _, p := range pools {
		for _, b := range p.Stats() {
			s.offered += b.Offered
			s.acked += b.Acked
			s.dropped += b.Dropped
		}
	}
	for _, tabs := range got {
		s.tables = append(s.tables, stageTables(q, func(name string) *perfq.Table {
			t, ok := tabs[name]
			if !ok {
				return nil
			}
			return &perfq.Table{Schema: t.Schema, Rows: t.Rows}
		}))
	}
	return s, nil
}

// runSingle is the single-window pipeline: decode and feed chunk by
// chunk, close, settle the pool, format.
func (t *tracedRunner) runSingle(src *chunkSource, pools []*netstore.Pool, format func(map[string]*exec.Table)) error {
	for {
		n, err := src.fill()
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		t.Feed(src.buf[:n])
	}
	tables, err := t.closeRun()
	if err != nil {
		return err
	}
	if len(pools) > 0 {
		t.rec.begin("netstore.sync")
		for _, p := range pools {
			if err = p.Sync(); err != nil {
				break
			}
		}
		t.rec.end()
		if err != nil {
			return fmt.Errorf("backing pool sync: %w", err)
		}
	}
	format(tables)
	return nil
}

// readSpans derives a run's ledger from its spans: each span's self time
// is its duration minus its children's, charged to its layer; the run
// span's own self time is the residual no layer explains.
func (s *tracedSample) readSpans(spans []span, offset int) {
	s.self = map[string]time.Duration{}
	s.total = map[string]time.Duration{}
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		d := time.Duration(sp.End - sp.Start)
		self[i] += d
		if p := int(sp.Parent) - offset; p >= 0 {
			self[p] -= d
		}
		s.total[sp.Name] += d
		if sp.Name == "window.close" {
			s.closes = append(s.closes, d)
		}
	}
	inRun := make([]bool, len(spans))
	for i, sp := range spans {
		p := int(sp.Parent) - offset
		switch {
		case sp.Name == "run":
			s.wall = time.Duration(sp.End - sp.Start)
			s.self[""] = self[i]
			inRun[i] = true
		case p >= 0 && inRun[p]:
			inRun[i] = true
			s.self[layerOf(sp.Name)] += self[i]
		}
	}
}

// ledgerRow is one layer's line of the ledger.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// ledger is the mean per-run self time of every layer over traced runs,
// their sum, the wall time of the run span and the residual.
type ledger struct {
	Rows       []ledgerRow `json:"layers"`
	SumMs      float64     `json:"sum_ms"`
	WallMs     float64     `json:"wall_ms"`
	ResidualMs float64     `json:"residual_ms"`
	Runs       int         `json:"runs"`
}

func buildLedger(samples []*tracedSample) ledger {
	var l ledger
	if len(samples) == 0 {
		return l
	}
	sums := map[string]time.Duration{}
	var wall time.Duration
	for _, s := range samples {
		wall += s.wall
		for layer, d := range s.self {
			sums[layer] += d
		}
	}
	n := float64(len(samples))
	l.Runs = len(samples)
	l.WallMs = msOf(wall) / n
	l.ResidualMs = msOf(sums[""]) / n
	for layer, d := range sums {
		if layer == "" {
			continue
		}
		ms := msOf(d) / n
		l.Rows = append(l.Rows, ledgerRow{Layer: layer, SelfMs: ms, Share: ms / l.WallMs})
		l.SumMs += ms
	}
	sort.Slice(l.Rows, func(i, j int) bool { return l.Rows[i].SelfMs > l.Rows[j].SelfMs })
	return l
}

func (l ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger (mean per traced run over %d runs):\n", l.Runs)
	for _, r := range l.Rows {
		fmt.Fprintf(w, "  %-10s %12.3f ms  %6.2f%%\n", r.Layer, r.SelfMs, 100*r.Share)
	}
	fmt.Fprintf(w, "  %-10s %12.3f ms  %6.2f%%\n", "sum", l.SumMs, 100*l.SumMs/l.WallMs)
	fmt.Fprintf(w, "  %-10s %12.3f ms  %6.2f%%\n", "residual", l.ResidualMs, 100*l.ResidualMs/l.WallMs)
	fmt.Fprintf(w, "  %-10s %12.3f ms\n", "wall", l.WallMs)
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
