package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"syscall"
	"time"

	"perfq"
	"perfq/internal/netsim"
	"perfq/internal/queries"
	"perfq/internal/topo"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
	"perfq/internal/window"
)

// workload is one named benchmark configuration: how its capture is
// generated, which query runs over it, and how the datapath is deployed.
type workload struct {
	name  string
	query string
	// gen generates the capture for a seed; scale < 1 shrinks it (tests).
	gen func(seed int64, scale float64) ([]trace.Record, error)

	pairs, ways int    // cache geometry; pairs == 0 keeps the default 2^18 × 8
	shards      int    // datapath shards; 0 or 1 is serial
	window      int64  // tumbling count window in records; 0 = one window
	topo        string // fabric topology spec; "" = single datapath
	pool        int    // in-process backing stores to mirror evictions to
	// profile writes a CPU profile of the traced run and lines the
	// ledger up against it.
	profile bool
}

// poolQueueDepth is each pool backend's eviction queue depth, pqrun's
// -backing-queue default.
const poolQueueDepth = 1 << 16

// workloads are the benchmark's workloads; BENCHMARK.json gives the
// reason for each.
var workloads = []*workload{
	{
		// pqrun's default shape: live flows fit the cache, and the
		// end-of-run flush hands every key to backing in bucket order.
		name:    "wan-batch",
		query:   queries.ByName("Latency EWMA").Source,
		gen:     wanCapture,
		profile: true,
	},
	{
		// Figure 5's scaled point: about 10% of records evict, and the
		// pool ships every eviction over loopback.
		name:  "wan-evict-pool",
		query: queries.ByName("Latency EWMA").Source,
		gen:   wanCapture,
		pairs: 1 << 14, ways: 8,
		pool: 2,
	},
	{
		// The shard router and rings, and a barrier, flush and JOIN at
		// every window close.
		name:   "dc-loss-windowed",
		query:  queries.ByName("Per-flow loss rate").Source,
		gen:    dcCapture,
		shards: 2,
		window: 1500,
	},
	{
		// The only workload through fabric.
		name:  "leafspine-fabric",
		query: queries.ByName("Per-flow counters").Source,
		gen:   leafSpineCapture,
		topo:  leafSpine,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// wanCapture is the WAN preset over 60 s of virtual time: about 1.12 M
// records at scale 1.
func wanCapture(seed int64, scale float64) ([]trace.Record, error) {
	return trace.Collect(tracegen.New(tracegen.WANConfig(seed, scaled(60*time.Second, scale))))
}

// dcCapture is the DC preset over 5 s of virtual time: about 0.39 M
// records, about 260 windows of 1500 records, at scale 1.
func dcCapture(seed int64, scale float64) ([]trace.Record, error) {
	return trace.Collect(tracegen.New(tracegen.DCConfig(seed, scaled(5*time.Second, scale))))
}

// leafSpine is the fabric workload's topology: 4 leaves, 2 spines, 8
// hosts a leaf.
const leafSpine = "leafspine:4x2x8"

// leafSpineCapture simulates 8000 background flows over leafSpine:
// about 0.5 M per-queue records at scale 1.
func leafSpineCapture(seed int64, scale float64) ([]trace.Record, error) {
	tp, err := topo.ParseSpec(leafSpine, topo.Options{})
	if err != nil {
		return nil, err
	}
	flows := int(8000 * scale)
	if flows < 20 {
		flows = 20
	}
	return netsim.GenWorkload(tp, netsim.Workload{Seed: seed, Flows: flows})
}

// capturesPerRun is how many captures one run replays, generated from
// seeds derived from the run's seed. wan-batch's end-of-run flush costs
// up to 20% more on one capture draw than on another, so a run spreads
// its replays over several draws to keep its figures steady across
// seeds.
const capturesPerRun = 3

// captureSeed is the generator seed of capture i of a run seeded seed.
func captureSeed(seed int64, i int) int64 { return seed*capturesPerRun + int64(i) + 1 }

func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}

// input is one generated capture, serialized once to pqt bytes that
// every run decodes, plus its ground-truth reference.
type input struct {
	seed    int64 // generator seed
	pqt     []byte
	records int
	sha256  string
	// ref holds the reference tables of every plan stage, one map per
	// window (a single-window run has one).
	ref []map[string]*perfq.Table
	// exact marks tables that must match bit for bit; the others must
	// match within envelopeTol (see classify).
	exact map[string]bool
}

// encodePQT serializes records to pqt bytes.
func encodePQT(recs []trace.Record) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// capture generates and serializes a workload's capture for one seed.
func (w *workload) capture(seed int64, scale float64) ([]trace.Record, []byte, error) {
	recs, err := w.gen(seed, scale)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generate capture: %w", w.name, err)
	}
	b, err := encodePQT(recs)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: encode capture: %w", w.name, err)
	}
	return recs, b, nil
}

// topology builds the workload's fabric topology (nil for a single
// datapath).
func (w *workload) topology() (*topo.Topology, error) {
	if w.topo == "" {
		return nil, nil
	}
	return topo.ParseSpec(w.topo, topo.Options{})
}

// options are the facade run options of the workload, minus the
// backing pool (dialled per run).
func (w *workload) options(tp *topo.Topology) []perfq.RunOption {
	var opts []perfq.RunOption
	if w.pairs > 0 {
		opts = append(opts, perfq.WithCache(w.pairs, w.ways))
	}
	if w.shards > 1 {
		opts = append(opts, perfq.WithShards(w.shards))
	}
	if tp != nil {
		opts = append(opts, perfq.WithFabric(tp))
	}
	if w.window > 0 {
		opts = append(opts, perfq.WithWindow(perfq.WindowSpec{Count: w.window}))
	}
	return opts
}

// prepare generates a workload's input for one seed and computes its
// reference with Query.GroundTruth: per window (window.Spec.Slices) for
// windowed workloads, through WithFabric for fabric ones.
func (w *workload) prepare(seed int64, scale float64) (*input, error) {
	recs, b, err := w.capture(seed, scale)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: seed %d generated an empty capture", w.name, seed)
	}
	sum := sha256.Sum256(b)
	in := &input{seed: seed, records: len(recs), sha256: hex.EncodeToString(sum[:])}
	if in.pqt, err = offHeap(b); err != nil {
		return nil, err
	}

	q, err := perfq.Compile(w.query)
	if err != nil {
		return nil, err
	}
	tp, err := w.topology()
	if err != nil {
		return nil, err
	}
	var gtOpts []perfq.RunOption
	if tp != nil {
		gtOpts = append(gtOpts, perfq.WithFabric(tp))
	}
	slices := [][2]int{{0, len(recs)}}
	if w.window > 0 {
		slices = window.Spec{Count: w.window}.Slices(recs)
	}
	for _, s := range slices {
		gt, err := q.GroundTruth(perfq.Records(recs[s[0]:s[1]]), gtOpts...)
		if err != nil {
			return nil, fmt.Errorf("%s: ground truth: %w", w.name, err)
		}
		in.ref = append(in.ref, stageTables(q, gt.Table))
	}
	in.exact = classify(q)
	return in, nil
}

// offHeap copies b into anonymous memory outside the Go heap. A capture
// is the benchmark's largest allocation: kept on the heap it would raise
// the collector's target and hide the GC cost that pqrun, which streams
// its capture from a file, pays. The mapping lives until exit.
func offHeap(b []byte) ([]byte, error) {
	if len(b) == 0 {
		return b, nil
	}
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map capture: %w", err)
	}
	copy(m, b)
	return m, nil
}

// stageTables snapshots every plan stage's table through a lookup.
func stageTables(q *perfq.Query, table func(string) *perfq.Table) map[string]*perfq.Table {
	out := map[string]*perfq.Table{}
	for _, st := range q.Plan().Stages {
		out[st.Name] = table(st.Name)
	}
	return out
}
