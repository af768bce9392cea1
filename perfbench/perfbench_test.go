package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"perfq"
)

// tinyScale shrinks every capture to a few thousand records.
const tinyScale = 0.05

// benchmarkSpec is the part of BENCHMARK.json the tests hold the
// command to.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmokeEveryMetric runs every workload on a tiny capture, untraced
// and traced, and requires every metric BENCHMARK.json names to be
// emitted with its unit, and every run to pass the ground-truth check.
func TestSmokeEveryMetric(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, sw := range spec.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			out := t.TempDir()
			res, err := bench(config{
				workload: w, seeds: []int64{3}, trace: traced,
				scale: tinyScale, out: out, log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !res.correct() {
				t.Fatalf("%s trace=%v: %d/%d windows failed: %s", w.name, traced, res.Failed, res.Attempted, res.FirstError)
			}
			line, err := res.summaryLine()
			if err != nil {
				t.Fatal(err)
			}
			var summary struct {
				Correct   *bool `json:"correct"`
				Attempted *int  `json:"attempted"`
				Failed    *int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &summary); err != nil || summary.Correct == nil || summary.Attempted == nil || summary.Failed == nil {
				t.Fatalf("%s: summary line %s lacks a key (%v)", w.name, line, err)
			}
			if len(summary.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the summary line, BENCHMARK.json names %d", w.name, traced, len(summary.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := summary.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			for name := range reportedOnly {
				if _, ok := res.Metrics[name]; !ok && !traced {
					t.Errorf("%s: reported metric %s missing", w.name, name)
				}
			}
			if traced && w.profile {
				if _, err := os.Stat(filepath.Join(out, fmt.Sprintf("%s-seed3.cpu.pprof", w.name))); err != nil {
					t.Errorf("%s: traced run wrote no CPU profile: %v", w.name, err)
				}
			}
		}
	}
}

// TestGateRejectsPerturbedCell perturbs one cell of a passing run's
// tables, by one ulp in an exact table and by 1e-9 relative in an
// envelope table, and requires the ground-truth check to fail that
// window, and the run to count as incorrect.
func TestGateRejectsPerturbedCell(t *testing.T) {
	for _, name := range []string{"dc-loss-windowed", "wan-batch"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		in, err := w.prepare(5, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		s, err := runFacade(w, in, true)
		if err != nil {
			t.Fatal(err)
		}
		if s.failed != 0 || s.checked != len(in.ref) {
			t.Fatalf("%s: unperturbed run failed %d of %d windows: %v", name, s.failed, s.checked, s.firstErr)
		}
		k := len(s.tables) / 2
		table := primaryTable(t, w)
		orig := s.tables[k][table]
		if orig == nil || len(orig.Rows) == 0 {
			t.Fatalf("%s: window %d table %s is empty", name, k, table)
		}
		perturbed := *orig
		perturbed.Rows = append([][]float64(nil), orig.Rows...)
		row := append([]float64(nil), orig.Rows[0]...)
		last := len(row) - 1
		if in.exact[table] {
			row[last] = math.Nextafter(row[last], math.Inf(1))
		} else {
			row[last] += 1e-9 * math.Max(1, math.Abs(row[last]))
		}
		perturbed.Rows[0] = row
		s.tables[k][table] = &perturbed
		s.checked, s.failed, s.firstErr = 0, 0, nil
		s.check(in)
		if s.failed != 1 || s.firstErr == nil {
			t.Fatalf("%s: perturbed cell: %d windows failed (%v), want exactly 1", name, s.failed, s.firstErr)
		}
		tl := &tally{}
		tl.add(s)
		res := &result{Attempted: tl.checked, Failed: tl.failed}
		if res.correct() {
			t.Fatalf("%s: a run with a failed window reads correct", name)
		}
	}
}

// primaryTable names the workload query's primary result stage.
func primaryTable(t *testing.T, w *workload) string {
	t.Helper()
	q, err := perfq.Compile(w.query)
	if err != nil {
		t.Fatal(err)
	}
	names := q.Results()
	return names[len(names)-1]
}

// TestCaptureDeterminism requires one seed to yield byte-identical
// captures, and another seed a different one.
func TestCaptureDeterminism(t *testing.T) {
	for _, w := range workloads {
		_, a, err := w.capture(11, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := w.capture(11, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 11 generated two different captures (%d and %d bytes)", w.name, len(a), len(b))
		}
		_, c, err := w.capture(12, tinyScale)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 11 and 12 generated the same capture", w.name)
		}
	}
}

// TestCompareFlagsOtherHost requires results from two hosts to be
// reported as not comparable rather than as deltas.
func TestCompareFlagsOtherHost(t *testing.T) {
	in := []inputInfo{{Seed: 1, GenSeed: 4, Records: 10, SHA256: "ab"}}
	a := &result{Workload: "wan-batch", Host: fingerprint(), Inputs: in,
		Metrics: map[string]stat{"records_per_s": {Unit: "1/s", Median: 100, Q1: 90, Q3: 110, N: 5}}}
	b := *a
	var out bytes.Buffer
	if !compareResults(&out, a, &b) {
		t.Fatalf("identical results not comparable: %s", out.String())
	}
	b.Host.CPU += " (another)"
	out.Reset()
	if compareResults(&out, a, &b) || !bytes.Contains(out.Bytes(), []byte("not comparable: hosts differ")) {
		t.Fatalf("results from two hosts compared: %s", out.String())
	}
}

// TestProfileSharesCountsLabelledSamples profiles a labelled busy loop
// and a longer unlabelled one, and requires only the labelled samples to
// be read, all charged to no layer since no span function is on their
// stacks.
func TestProfileSharesCountsLabelledSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spin := func(d time.Duration) {
		for end := time.Now().Add(d); time.Now().Before(end); {
		}
	}
	pprof.Do(context.Background(), pprof.Labels("perfbench", "run"), func(context.Context) { spin(500 * time.Millisecond) })
	spin(time.Second)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, n, err := profileShares(path)
	if err != nil {
		t.Fatal(err)
	}
	// 500 ms labelled at 100 Hz is about 50 samples; counting the
	// unlabelled second too would give about 150.
	if n < 10 || n > 75 {
		t.Fatalf("%d labelled samples, want about 50", n)
	}
	if len(shares) != 1 || shares[""] != 1 {
		t.Fatalf("shares %v, want everything charged to no layer", shares)
	}
}
