// benchjson converts `go test -bench` output on stdin into a JSON
// document for the repo's recorded benchmark trajectory (BENCH_*.json):
//
//	go test -bench BenchmarkShardedDatapath -benchmem . | benchjson -out BENCH_6.json
//
// Each benchmark becomes one entry with the standard ns/op, B/op and
// allocs/op columns plus any custom ReportMetric columns (pkts/s,
// evict%, …) keyed by metric name. Repeated lines of one benchmark
// (`go test -count N`) merge into one entry: every column becomes the
// median of the N samples, and ns_min/ns_max keep the ns/op spread. The
// document records NumCPU so a reader can tell a host that could not run
// wider from a harness that never asked.
//
// Two more modes operate on recorded files:
//
//	benchjson -check BENCH_6.json
//
// fails (exit 1) if any multi-worker entry (shards-N with N > 1, or the
// fabric's parallel sub-benchmark) was recorded at procs: 1 on a host
// with more than one CPU — the harness bug that silently pinned
// BENCH_3..5.json to one processor must never recur.
//
//	benchjson -compare BENCH_5.json BENCH_6.json
//
// prints a benchstat-style table of the benchmarks the two files share:
// old/new ns/op with delta, plus deltas for shared throughput metrics.
// Allocation metrics (B/op, allocs/op) show absolute deltas — a relative
// delta of an allocation count is meaningless around zero, and zero is
// exactly where those columns are supposed to sit. With -md the table is
// emitted as GitHub-flavored markdown, ready to paste into
// EXPERIMENTS.md or a PR description:
//
//	benchjson -compare -md BENCH_6.json BENCH_7.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Entry is one parsed benchmark result line.
type Entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Samples    int                `json:"samples,omitempty"`
	NsMin      float64            `json:"ns_min,omitempty"`
	NsMax      float64            `json:"ns_max,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the file layout.
type Doc struct {
	Go      string  `json:"go"`
	CPU     string  `json:"cpu,omitempty"`
	CPUs    int     `json:"cpus,omitempty"`
	Entries []Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default stdout)")
	check := flag.String("check", "", "validate a recorded file's procs metrics and exit")
	compare := flag.Bool("compare", false, "compare two recorded files: benchjson -compare OLD NEW")
	md := flag.Bool("md", false, "with -compare, emit a markdown table instead of aligned text")
	flag.Parse()

	switch {
	case *check != "":
		if err := checkFile(*check); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: OLD NEW")
			os.Exit(2)
		}
		if err := compareFiles(flag.Arg(0), flag.Arg(1), *md); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		return
	}

	doc := Doc{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"), strings.HasPrefix(line, "goarch:"), strings.HasPrefix(line, "pkg:"):
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		e := Entry{Name: fields[0], Metrics: map[string]float64{}}
		e.Iterations, _ = strconv.ParseInt(fields[1], 10, 64)
		// Remaining fields come in value/unit pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				e.NsPerOp = v
			default:
				e.Metrics[unit] = v
			}
		}
		if len(e.Metrics) == 0 {
			e.Metrics = nil
		}
		doc.Entries = append(doc.Entries, e)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	doc.Entries = mergeSamples(doc.Entries)
	doc.Go = runtime.Version()
	doc.CPUs = runtime.NumCPU()

	buf, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// mergeSamples folds repeated entries of one benchmark into a single
// entry, in first-appearance order: the median of every column, with the
// sample count and the ns/op minimum and maximum.
func mergeSamples(in []Entry) []Entry {
	var order []string
	byName := map[string][]Entry{}
	for _, e := range in {
		if _, ok := byName[e.Name]; !ok {
			order = append(order, e.Name)
		}
		byName[e.Name] = append(byName[e.Name], e)
	}
	out := make([]Entry, 0, len(order))
	for _, name := range order {
		es := byName[name]
		if len(es) == 1 {
			out = append(out, es[0])
			continue
		}
		m := Entry{Name: name, Iterations: es[0].Iterations, Samples: len(es)}
		ns := make([]float64, len(es))
		for i, e := range es {
			ns[i] = e.NsPerOp
		}
		m.NsPerOp, m.NsMin, m.NsMax = median(ns), slices.Min(ns), slices.Max(ns)
		for unit := range es[0].Metrics {
			vs := make([]float64, 0, len(es))
			for _, e := range es {
				if v, ok := e.Metrics[unit]; ok {
					vs = append(vs, v)
				}
			}
			if m.Metrics == nil {
				m.Metrics = map[string]float64{}
			}
			m.Metrics[unit] = median(vs)
		}
		out = append(out, m)
	}
	return out
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count).
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func readDoc(path string) (*Doc, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// normName strips the -GOMAXPROCS suffix the testing package appends to
// benchmark names when GOMAXPROCS != 1, using the entry's own procs
// metric to avoid mangling names with legitimate numeric suffixes
// (window-1000).
func normName(e Entry) string {
	if p, ok := e.Metrics["procs"]; ok && p > 1 {
		if suf := fmt.Sprintf("-%.0f", p); strings.HasSuffix(e.Name, suf) {
			return strings.TrimSuffix(e.Name, suf)
		}
	}
	return e.Name
}

// shardsRe extracts the worker count of a sharded sub-benchmark name.
var shardsRe = regexp.MustCompile(`/shards-(\d+)$`)

// workersOf returns how many workers a recorded entry was meant to use
// (0 when the entry has no parallel interpretation). The fabric's
// parallel sub-benchmark is reported as 2 workers — any value > 1 means
// "this measurement claims to exercise parallelism".
func workersOf(name string) int {
	if m := shardsRe.FindStringSubmatch(name); m != nil {
		n, _ := strconv.Atoi(m[1])
		return n
	}
	if strings.HasSuffix(name, "/parallel") {
		return 2
	}
	return 0
}

// checkFile enforces the recorded-procs invariant: a multi-worker entry
// measured at procs: 1 on a multi-CPU host means the harness failed to
// raise GOMAXPROCS — the bug that made BENCH_3..5.json's "scaling"
// series fiction. Files without a cpus field (recorded before the field
// existed) and single-CPU hosts pass vacuously, with a note.
func checkFile(path string) error {
	doc, err := readDoc(path)
	if err != nil {
		return err
	}
	if doc.CPUs == 0 {
		fmt.Printf("%s: no cpus field (pre-procs-check recording); nothing to verify\n", path)
		return nil
	}
	if doc.CPUs == 1 {
		fmt.Printf("%s: single-CPU host; procs: 1 is the honest maximum everywhere\n", path)
		return nil
	}
	var bad []string
	for _, e := range doc.Entries {
		w := workersOf(normName(e))
		if w <= 1 {
			continue
		}
		procs, ok := e.Metrics["procs"]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: multi-worker entry records no procs metric", e.Name))
			continue
		}
		want := float64(min(w, doc.CPUs))
		if procs < want {
			bad = append(bad, fmt.Sprintf("%s: procs %.0f < min(workers %d, cpus %d)", e.Name, procs, w, doc.CPUs))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("%s:\n  %s", path, strings.Join(bad, "\n  "))
	}
	fmt.Printf("%s: procs honest on all %d entries (cpus %d)\n", path, len(doc.Entries), doc.CPUs)
	return nil
}

// compareFiles prints a benchstat-style old-vs-new table of the shared
// benchmarks: ns/op with delta, then every shared custom metric. When md
// is set the table is a markdown table instead of aligned text.
func compareFiles(oldPath, newPath string, md bool) error {
	od, err := readDoc(oldPath)
	if err != nil {
		return err
	}
	nd, err := readDoc(newPath)
	if err != nil {
		return err
	}
	oldBy := map[string]Entry{}
	for _, e := range od.Entries {
		oldBy[normName(e)] = e
	}
	printRow := func(name, old, new, delta string) {
		if md {
			fmt.Printf("| %s | %s | %s | %s |\n", name, old, new, delta)
		} else {
			fmt.Printf("%-48s %12s %12s %8s\n", name, old, new, delta)
		}
	}
	if md {
		fmt.Printf("old: `%s` (%s, %d cpus); new: `%s` (%s, %d cpus)\n\n",
			oldPath, od.CPU, od.CPUs, newPath, nd.CPU, nd.CPUs)
		fmt.Println("| benchmark [metric] | old | new | delta |")
		fmt.Println("|---|---:|---:|---:|")
	} else {
		fmt.Printf("old: %s (%s, %d cpus)\nnew: %s (%s, %d cpus)\n\n",
			oldPath, od.CPU, od.CPUs, newPath, nd.CPU, nd.CPUs)
		printRow("benchmark [metric]", "old", "new", "delta")
	}
	num := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	shared := 0
	for _, e := range nd.Entries {
		name := normName(e)
		o, ok := oldBy[name]
		if !ok {
			printRow(name+" [ns/op]", "—", num(e.NsPerOp), "new")
			continue
		}
		shared++
		printRow(name+" [ns/op]", num(o.NsPerOp), num(e.NsPerOp), delta(o.NsPerOp, e.NsPerOp))
		keys := make([]string, 0, len(e.Metrics))
		for k := range e.Metrics {
			if _, ok := o.Metrics[k]; ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			d := delta(o.Metrics[k], e.Metrics[k])
			if k == "B/op" || k == "allocs/op" {
				// Allocation columns: the interesting comparisons hover
				// around zero, where a relative delta is noise or undefined.
				d = absDelta(o.Metrics[k], e.Metrics[k])
			}
			printRow(name+" ["+k+"]", num(o.Metrics[k]), num(e.Metrics[k]), d)
		}
	}
	if shared == 0 {
		return fmt.Errorf("no shared benchmarks between %s and %s", oldPath, newPath)
	}
	return nil
}

func delta(old, new float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(new-old)/old)
}

// absDelta is the absolute-difference delta used for allocation metrics.
func absDelta(old, new float64) string {
	if old == new {
		return "0"
	}
	return fmt.Sprintf("%+.4g", new-old)
}
