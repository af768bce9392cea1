// Command perfbench is perfq's end-to-end benchmark. It replays
// generated captures through the public perfq facade, from pqt bytes in
// to formatted tables out, checks every table against ground truth, and
// prints the end-to-end metrics with their spread. With --trace 1 it
// instead rebuilds the same pipeline from each layer's public functions,
// times the calls into them, and prints a per-layer ledger.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload wan-batch --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload wan-batch --seed 1 --seed2 2 --seconds 20 --trace 0
//	bash perfbench/run.sh --compare old.json new.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Results, spans and profiles
// are written under --out.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: wan-batch, wan-evict-pool, dc-loss-windowed or leafspine-fabric")
		seed    = flag.Int64("seed", 1, "seed the run's captures are generated from")
		seed2   = flag.Int64("seed2", -1, "second seed whose captures are replayed in turn with --seed's, to check a claim on a seed not used while making it (untraced runs; negative = none)")
		seconds = flag.Int("seconds", 20, "how long to measure")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics through the facade; 1: per-layer metrics from a traced run")
		out     = flag.String("out", ".bench_build/results", "directory for results, spans and profiles")
		compare = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("--compare needs two result files"))
		}
		a, err := readResult(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		b, err := readResult(flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if !compareResults(os.Stdout, a, b) {
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fail(fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1"))
	}
	seeds := []int64{*seed}
	if *seed2 >= 0 {
		seeds = append(seeds, *seed2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	cfg := config{
		workload: w, seeds: seeds, seconds: *seconds, trace: *traced == 1,
		scale: 1, out: *out, log: os.Stdout,
	}
	res, err := bench(cfg)
	if err != nil {
		fail(err)
	}
	res.printHuman(os.Stdout)
	path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *traced))
	if err := writeResult(path, res); err != nil {
		fail(err)
	}
	fmt.Printf("result written to %s\n", path)
	line, err := res.summaryLine()
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(2)
}

// config is one benchmark invocation.
type config struct {
	workload *workload
	seeds    []int64
	seconds  int
	trace    bool
	scale    float64   // capture scale; below 1 only in tests
	out      string    // where spans and profiles go ("" = nowhere)
	log      io.Writer // ledger and progress output
}

// bench runs one invocation: it prepares every seed's input and its
// reference (untimed), warms up, and then measures for cfg.seconds.
func bench(cfg config) (*result, error) {
	runtime.GOMAXPROCS(runtime.NumCPU())
	w := cfg.workload
	res := &result{Workload: w.name, Seconds: cfg.seconds, Host: fingerprint(), Metrics: map[string]stat{}}
	if cfg.trace {
		res.Trace = 1
	}
	// Traced runs replay the first capture of the first seed only.
	seeds, captures := cfg.seeds, capturesPerRun
	if cfg.trace {
		seeds, captures = seeds[:1], 1
	}
	var groups [][]*input
	for _, seed := range seeds {
		var g []*input
		for i := 0; i < captures; i++ {
			in, err := w.prepare(captureSeed(seed, i), cfg.scale)
			if err != nil {
				return nil, err
			}
			g = append(g, in)
			res.Inputs = append(res.Inputs, inputInfo{Seed: seed, GenSeed: in.seed, Records: in.records, SHA256: in.sha256})
		}
		groups = append(groups, g)
	}
	t := &tally{}
	// Warm up: lazy set-up in the runtime and the layers is paid here.
	s, err := runFacade(w, groups[0][0], false)
	if err != nil {
		return nil, err
	}
	t.add(s)
	if cfg.trace {
		err = benchTraced(cfg, groups[0][0], res, t)
	} else {
		err = benchTimed(cfg, seeds, groups, res, t)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = t.checked, t.failed
	if t.checked > 0 {
		res.FailedFrac = float64(t.failed) / float64(t.checked)
	}
	if t.offered > 0 {
		res.PoolDroppedFrac = float64(t.dropped) / float64(t.offered)
	}
	if t.firstErr != nil {
		res.FirstError = t.firstErr.Error()
	}
	return res, nil
}

// tally accumulates the correctness books over every run.
type tally struct {
	checked, failed  int
	offered, dropped uint64
	firstErr         error
}

func (t *tally) add(s *sample) {
	t.checked += s.checked
	t.failed += s.failed
	t.offered += s.offered
	t.dropped += s.dropped
	if t.firstErr == nil {
		t.firstErr = s.firstErr
	}
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// benchTimed replays every capture of every seed in turn until
// cfg.seconds have passed, and reports the end-to-end metrics of the
// first seed's runs (and of each seed's, when there are several).
func benchTimed(cfg config, seeds []int64, groups [][]*input, res *result, t *tally) error {
	type slot struct {
		group int
		in    *input
	}
	var slots []slot
	for g, ins := range groups {
		for _, in := range ins {
			slots = append(slots, slot{g, in})
		}
	}
	runs := make([][]*sample, len(groups))
	start := time.Now()
	for i := 0; i < len(slots) || time.Since(start) < time.Duration(cfg.seconds)*time.Second; i++ {
		sl := slots[i%len(slots)]
		s, err := runFacade(cfg.workload, sl.in, false)
		if err != nil {
			return err
		}
		t.add(s)
		runs[sl.group] = append(runs[sl.group], s)
	}
	res.Metrics = e2eMetrics(runs[0])
	if len(groups) > 1 {
		res.BySeed = map[string]map[string]stat{}
		for g, seed := range seeds {
			res.BySeed[strconv.FormatInt(seed, 10)] = e2eMetrics(runs[g])
		}
	}
	return nil
}

// e2eMetrics are the end-to-end metrics over a set of facade runs.
func e2eMetrics(runs []*sample) map[string]stat {
	var rps, setup, cpu, alloc, heap, emits, tails []float64
	for _, s := range runs {
		n := float64(s.records)
		rps = append(rps, n/s.wall.Seconds())
		setup = append(setup, s.setup.Seconds())
		cpu = append(cpu, float64(s.cpu)/n)
		alloc = append(alloc, float64(s.alloc)/n)
		heap = append(heap, float64(s.heap)/1e6)
		e := durationsMs(s.emits)
		emits = append(emits, e...)
		tails = append(tails, pct(e, tailQuantile(len(e))))
	}
	return map[string]stat{
		"records_per_s":          statOf("1/s", rps),
		"setup_s":                statOf("s", setup),
		"window_emit_p50_ms":     statOf("ms", emits),
		"window_emit_p95_ms":     tail("ms", emits, tails),
		"cpu_ns_per_record":      statOf("ns", cpu),
		"alloc_bytes_per_record": statOf("B", alloc),
		"heap_inuse_mb":          statOf("MB", heap),
	}
}

// tailQuantile is the quantile a "p95" metric reports over n samples:
// the 95th percentile when at least ten samples lie beyond it, else the
// highest percentile that has ten beyond it, and never below the median.
// A single-window workload emits one window a run, so its p95 over a
// few dozen runs would rest on one or two samples.
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.95, 1-10/float64(n)))
}

// tail is the tail quantile of every sample of every run, with the
// spread of that quantile's per-run values as its quartiles.
func tail(unit string, all, perRun []float64) stat {
	st := statOf(unit, perRun)
	st.Median = pct(all, tailQuantile(len(all)))
	st.N = len(all)
	return st
}

func pct(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

// benchTraced interleaves facade runs with traced runs (their ratio is
// the tracing overhead) and reports the per-layer metrics and the
// ledger. On a workload with profile set, the second half of the time
// runs traced only, under the CPU profiler, and the ledger of those runs
// is lined up against the profile.
func benchTraced(cfg config, in *input, res *result, t *tally) error {
	w := cfg.workload
	rec := newRecorder()
	var (
		traced    []*tracedSample
		untraced  []*sample
		overheads []float64
	)
	budget := time.Duration(cfg.seconds) * time.Second
	if w.profile {
		budget /= 2
	}
	start := time.Now()
	for i := 0; time.Since(start) < budget || len(traced) < 1; i++ {
		// Alternate which side goes first, so neither always runs on a
		// heap the other just left behind.
		var (
			s   *sample
			ts  *tracedSample
			err error
		)
		if i%2 == 0 {
			if s, err = runFacade(w, in, true); err == nil {
				ts, err = runTraced(w, in, rec, false)
			}
		} else {
			if ts, err = runTraced(w, in, rec, false); err == nil {
				s, err = runFacade(w, in, true)
			}
		}
		if err != nil {
			return err
		}
		t.add(s)
		checkTraced(ts, s, in, t)
		ts.tables, s.tables = nil, nil
		traced = append(traced, ts)
		untraced = append(untraced, s)
		overheads = append(overheads, 1-(float64(ts.records)/ts.wall.Seconds())/(float64(s.records)/s.wall.Seconds()))
	}

	var profiled []*tracedSample
	var profPath string
	if w.profile && cfg.out != "" {
		profPath = filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, cfg.seeds[0]))
		f, err := os.Create(profPath)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		start := time.Now()
		for time.Since(start) < budget || len(profiled) < 1 {
			ts, err := runTraced(w, in, rec, true)
			if err != nil {
				pprof.StopCPUProfile()
				f.Close()
				return err
			}
			checkTraced(ts, nil, in, t)
			ts.tables = nil
			profiled = append(profiled, ts)
		}
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
	}

	all := append(append([]*tracedSample(nil), traced...), profiled...)
	res.Metrics = layerMetrics(all, untraced, overheads)
	l := buildLedger(all)
	res.Ledger = &l
	fmt.Fprintf(cfg.log, "ledger of workload %s, seed %d (capture seed %d):\n", w.name, cfg.seeds[0], in.seed)
	l.print(cfg.log)
	if profPath != "" {
		shares, samples, err := profileShares(profPath)
		if err != nil {
			return err
		}
		fmt.Fprintf(cfg.log, "CPU profile of the %d profiled traced runs (%d samples in run spans): %s\n", len(profiled), samples, profPath)
		if samples < minProfileSamples {
			fmt.Fprintf(cfg.log, "too few samples to line the ledger up against the profile\n")
		} else {
			worst := compareShares(cfg.log, buildLedger(profiled), shares)
			fmt.Fprintf(cfg.log, "largest share difference: %.2f percentage points (tolerance %.0f)\n", 100*worst, 100*shareTolerance)
			res.ProfileMaxDiff = &worst
			t.checked++
			if worst > shareTolerance {
				t.fail(fmt.Errorf("ledger and CPU profile disagree by %.1f percentage points", 100*worst))
			}
		}
	}
	if cfg.out != "" {
		path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.spans.json", w.name, cfg.seeds[0]))
		if err := rec.writeJSON(path); err != nil {
			return err
		}
		fmt.Fprintf(cfg.log, "spans written to %s\n", path)
	}
	return nil
}

// shareTolerance is how far, in share of the run, a layer's ledger
// share may sit from its share of the CPU profile before the traced run
// counts as failed; minProfileSamples is the fewest run-span samples
// (a second of CPU at the profiler's 100 Hz) the comparison needs.
const (
	shareTolerance    = 0.05
	minProfileSamples = 100
)

// checkTraced holds a traced run to the reference and, when given, to
// the facade run it was paired with: the two must produce bit-identical
// tables, or the ledger would be measuring a different program.
func checkTraced(ts *tracedSample, facade *sample, in *input, t *tally) {
	probe := &sample{tables: ts.tables}
	probe.check(in)
	t.add(probe)
	if facade == nil {
		return
	}
	t.checked++
	if len(facade.tables) != len(ts.tables) {
		t.fail(fmt.Errorf("traced run closed %d windows, facade run %d", len(ts.tables), len(facade.tables)))
		return
	}
	for k := range ts.tables {
		for name, want := range facade.tables[k] {
			if err := compareTable(ts.tables[k][name], want, 0); err != nil {
				t.fail(fmt.Errorf("traced run differs from the facade run: window %d table %s: %w", k, name, err))
				return
			}
		}
	}
}

// layerMetrics are the per-layer metrics of a traced invocation.
func layerMetrics(traced []*tracedSample, untraced []*sample, overheads []float64) map[string]stat {
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	var closes, tails []float64
	for _, s := range traced {
		n := float64(s.records)
		ms := func(span string) float64 { return msOf(s.total[span]) }
		nsPer := func(span string) float64 { return float64(s.total[span]) / n }
		add("compiler.compile_ms", ms("compiler.compile"))
		add("switchsim.new_ms", ms("switchsim.new"))
		add("trace.decode_ns_per_record", nsPer("trace.decode"))
		add("switchsim.feed_ns_per_record", nsPer("switchsim.feed"))
		add("fabric.feed_ns_per_record", nsPer("fabric.feed"))
		add("kvstore.hit_ratio", ratio(float64(s.cache.Hits), float64(s.cache.Accesses)))
		add("kvstore.evictions_per_krecord", 1000*float64(s.cache.Evictions)/n)
		add("backing.flush_ms", ms("backing.flush"))
		add("backing.flush_ns_per_key", ratio(float64(s.total["backing.flush"]), float64(s.cache.Flushed)))
		add("backing.keys", float64(s.keys))
		add("backing.merges", float64(s.merges))
		add("exec.collect_ms", ms("exec.collect"))
		add("exec.format_ms", ms("exec.format"))
		add("shard.sync_ms", ms("shard.sync")+ms("shard.end"))
		add("window.count", float64(len(s.closes)))
		add("fabric.collect_ms", ms("fabric.collect"))
		add("fabric.unrouted", float64(s.unrouted))
		add("netstore.dial_ms", ms("netstore.dial"))
		add("netstore.sync_ms", ms("netstore.sync"))
		add("netstore.offered", float64(s.offered))
		add("netstore.acked", float64(s.acked))
		add("netstore.dropped", float64(s.dropped))
		add("ledger.residual_frac", ratio(float64(s.self[""]), float64(s.wall)))
		c := durationsMs(s.closes)
		closes = append(closes, c...)
		tails = append(tails, pct(c, tailQuantile(len(c))))
	}
	for _, s := range untraced {
		add("runtime.gc_cpu_frac", ratio(s.gcCPU, s.busyCPU))
	}
	units := map[string]string{
		"kvstore.hit_ratio": "ratio", "kvstore.evictions_per_krecord": "1/krecord",
		"backing.keys": "count", "backing.merges": "count", "window.count": "count",
		"fabric.unrouted": "count", "netstore.offered": "count", "netstore.acked": "count",
		"netstore.dropped": "count", "ledger.residual_frac": "ratio", "runtime.gc_cpu_frac": "ratio",
	}
	out := map[string]stat{}
	for name, xs := range per {
		unit, ok := units[name]
		switch {
		case ok:
		case strings.HasSuffix(name, "_ms"):
			unit = "ms"
		default:
			unit = "ns"
		}
		out[name] = statOf(unit, xs)
	}
	out["window.close_p50_ms"] = statOf("ms", closes)
	out["window.close_p95_ms"] = tail("ms", closes, tails)
	out["trace.overhead_frac"] = statOf("ratio", overheads)
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// gcCPU reads the runtime's cumulative GC CPU time and its busy
// (non-idle) CPU time, both in seconds, as runtime/metrics estimates
// them.
func gcCPU() (gc, busy float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64() - s[2].Value.Float64()
}
