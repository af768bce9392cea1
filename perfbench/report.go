package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// stat is one metric over the runs of a benchmark invocation.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quantile is the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func statOf(unit string, xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Unit: unit, Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// host identifies the machine a result was taken on; results from two
// different hosts are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func fingerprint() host {
	return host{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
}

// cpuModel reads the processor's model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// inputInfo is the provenance of one generated capture.
type inputInfo struct {
	Seed    int64  `json:"seed"`     // the run's seed
	GenSeed int64  `json:"gen_seed"` // the capture generator's seed
	Records int    `json:"records"`
	SHA256  string `json:"pqt_sha256"`
}

// result is everything one invocation measured.
type result struct {
	Workload        string                     `json:"workload"`
	Trace           int                        `json:"trace"`
	Seconds         int                        `json:"seconds"`
	Host            host                       `json:"host"`
	Inputs          []inputInfo                `json:"inputs"`
	Metrics         map[string]stat            `json:"metrics"`
	BySeed          map[string]map[string]stat `json:"by_seed,omitempty"`
	Ledger          *ledger                    `json:"ledger,omitempty"`
	Attempted       int                        `json:"attempted"`
	Failed          int                        `json:"failed"`
	FailedFrac      float64                    `json:"failed_frac"`
	PoolDroppedFrac float64                    `json:"pool_dropped_frac"`
	FirstError      string                     `json:"first_error,omitempty"`
	// ProfileMaxDiff is the largest gap between a layer's ledger share
	// and its CPU-profile share, on workloads that profile.
	ProfileMaxDiff *float64 `json:"profile_max_share_diff,omitempty"`
}

// sortedKeys lists a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printHuman writes the invocation's provenance and every metric with
// its spread.
func (r *result) printHuman(w io.Writer) {
	fmt.Fprintf(w, "workload %s  trace=%d  seconds=%d\n", r.Workload, r.Trace, r.Seconds)
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s\n", r.Host.CPU, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go)
	for _, in := range r.Inputs {
		fmt.Fprintf(w, "input: seed=%d gen_seed=%d records=%d pqt_sha256=%s\n", in.Seed, in.GenSeed, in.Records, in.SHA256)
	}
	printStats(w, "", r.Metrics)
	for _, seed := range sortedKeys(r.BySeed) {
		printStats(w, "seed "+seed+": ", r.BySeed[seed])
	}
	fmt.Fprintf(w, "correctness: %d/%d checks failed (failed_frac %.6f); pool_dropped_frac %.6f\n",
		r.Failed, r.Attempted, r.FailedFrac, r.PoolDroppedFrac)
	if r.FirstError != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.FirstError)
	}
}

func printStats(w io.Writer, prefix string, m map[string]stat) {
	for _, k := range sortedKeys(m) {
		s := m[k]
		fmt.Fprintf(w, "%s%-32s median %-14.6g q1 %-14.6g q3 %-14.6g n=%-6d %s\n", prefix, k, s.Median, s.Q1, s.Q3, s.N, s.Unit)
	}
}

// reportedOnly are metrics printed and saved with their spread but left
// out of the summary line: the tail of window emit latency swings with
// hypervisor steal on a shared host, so its run-to-run spread exceeds
// any bound a regression check could hold it to.
var reportedOnly = map[string]bool{"window_emit_p95_ms": true}

// summaryLine is the last line of standard output.
func (r *result) summaryLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.correct(),
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]value{},
	}
	for k, s := range r.Metrics {
		if !reportedOnly[k] {
			out.Metrics[k] = value{Value: s.Median, Unit: s.Unit}
		}
	}
	return json.Marshal(out)
}

// correct reports whether every window matched ground truth and the
// pool delivered every eviction it was offered.
func (r *result) correct() bool {
	return r.Failed == 0 && r.Attempted > 0 && r.PoolDroppedFrac == 0
}

func writeResult(path string, r *result) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func sameInputs(a, b []inputInfo) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// compareResults prints the change of every shared metric from a to b.
// Results from different hosts, workloads or inputs are flagged as not
// comparable instead, and compareResults returns false.
func compareResults(w io.Writer, a, b *result) bool {
	var why []string
	if a.Host != b.Host {
		why = append(why, fmt.Sprintf("hosts differ (%+v vs %+v)", a.Host, b.Host))
	}
	if a.Workload != b.Workload || a.Trace != b.Trace || a.Seconds != b.Seconds {
		why = append(why, fmt.Sprintf("runs differ (%s trace=%d %ds vs %s trace=%d %ds)",
			a.Workload, a.Trace, a.Seconds, b.Workload, b.Trace, b.Seconds))
	}
	if !sameInputs(a.Inputs, b.Inputs) {
		why = append(why, "inputs differ (seed, record count or pqt SHA-256)")
	}
	if len(why) > 0 {
		fmt.Fprintf(w, "not comparable: %s\n", strings.Join(why, "; "))
		return false
	}
	for _, k := range sortedKeys(a.Metrics) {
		sa, ok := b.Metrics[k]
		if !ok {
			continue
		}
		old := a.Metrics[k]
		delta := math.NaN()
		if old.Median != 0 {
			delta = (sa.Median - old.Median) / math.Abs(old.Median)
		}
		spread := "outside"
		if sa.Median >= old.Q1 && sa.Median <= old.Q3 {
			spread = "within"
		}
		fmt.Fprintf(w, "%-32s %14.6g -> %-14.6g %+8.2f%%  (%s the first result's quartiles) %s\n",
			k, old.Median, sa.Median, 100*delta, spread, old.Unit)
	}
	return true
}
