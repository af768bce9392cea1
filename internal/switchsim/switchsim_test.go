package switchsim

import (
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/kvstore"
	"perfq/internal/lang"
	"perfq/internal/queries"
	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

func compilePlan(t *testing.T, src string) *compiler.Plan {
	t.Helper()
	chk, err := lang.Check(lang.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := compiler.Compile(chk)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func testTrace(t *testing.T) []trace.Record {
	t.Helper()
	cfg := tracegen.DCConfig(99, 4*time.Second)
	cfg.FlowRate = 800
	// Stretch flows out so ~1300 are concurrently live — far above the
	// 256–512-pair test caches, forcing evicted keys to re-appear.
	cfg.PktGap = tracegen.LognormalWithMean(0.08, 1.0)
	cfg.DropProb = 0.01 // enough drops for the loss-rate query
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 5000 {
		t.Fatalf("trace too small: %d", len(recs))
	}
	return recs
}

// keyOf renders a row's key prefix for map comparison.

// tablesMatch compares two tables keyed by their first k columns within
// tolerance; mustCover requires every want row to appear in got.
func tablesMatch(t *testing.T, name string, got, want *exec.Table, k int, tol float64, mustCover bool) {
	t.Helper()
	type rowmap map[string][]float64
	index := func(tbl *exec.Table) rowmap {
		m := rowmap{}
		for _, r := range tbl.Rows {
			m[rowKeyStr(r[:k])] = r
		}
		return m
	}
	gm, wm := index(got), index(want)
	if mustCover && len(gm) != len(wm) {
		t.Errorf("%s: got %d rows, want %d", name, len(gm), len(wm))
	}
	for key, wrow := range wm {
		grow, ok := gm[key]
		if !ok {
			if mustCover {
				t.Errorf("%s: missing row for key %x", name, key)
			}
			continue
		}
		for i := k; i < len(wrow); i++ {
			diff := math.Abs(grow[i] - wrow[i])
			if diff > tol*math.Max(1, math.Abs(wrow[i])) {
				t.Errorf("%s: key %x col %d: got %v want %v", name, key, i, grow[i], wrow[i])
				break
			}
		}
	}
}

func rowKeyStr(vals []float64) string {
	b := make([]byte, 0, len(vals)*8)
	for _, v := range vals {
		u := uint64(int64(v))
		for j := 0; j < 8; j++ {
			b = append(b, byte(u>>(8*j)))
		}
	}
	return string(b)
}

// TestFig2DatapathMatchesGroundTruth runs every Figure 2 example through
// both the unbounded-memory executor and the real split datapath with a
// deliberately tiny cache. Linear-in-state queries must match exactly
// (the merge guarantee); the non-linear one must match on every key the
// datapath reports (validity semantics).
func TestFig2DatapathMatchesGroundTruth(t *testing.T) {
	recs := testTrace(t)
	for _, ex := range queries.Fig2 {
		plan := compilePlan(t, ex.Source)

		truth, err := exec.Run(plan, &trace.SliceSource{Records: recs})
		if err != nil {
			t.Fatalf("%s: exec: %v", ex.Name, err)
		}

		// 512-pair cache over thousands of flows: constant churn.
		dp, err := New(plan, Config{Geometry: kvstore.SetAssociative(512, 8)})
		if err != nil {
			t.Fatalf("%s: datapath: %v", ex.Name, err)
		}
		if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
			t.Fatal(err)
		}
		got, err := dp.Collect()
		if err != nil {
			t.Fatalf("%s: collect: %v", ex.Name, err)
		}

		st := plan.ByName[ex.Result]
		k := st.NumKeyCols()
		if st.Kind == compiler.KindSelect {
			k = len(st.Schema) // compare whole rows positionally via key=all
		}
		if ex.Linear {
			tablesMatch(t, ex.Name, got[ex.Result], truth[ex.Result], k, 1e-9, true)
		} else {
			// Non-linear: the datapath result covers only valid keys, and
			// those must agree with ground truth.
			tablesMatch(t, ex.Name, got[ex.Result], truth[ex.Result], k, 1e-9, false)
			valid, total := dp.Accuracy(0)
			if total == 0 || valid == total {
				t.Errorf("%s: expected some invalid keys under churn (got %d/%d)", ex.Name, valid, total)
			}
			if len(got[ex.Result].Rows) != valid {
				t.Errorf("%s: reported rows %d != valid keys %d", ex.Name, len(got[ex.Result].Rows), valid)
			}
		}

		// Sanity: caches actually churned for the 5-tuple keyed queries.
		if ex.Name == "Per-flow loss rate" {
			if dp.Stats()[0].Evictions == 0 {
				t.Errorf("%s: no evictions — test not exercising the merge path", ex.Name)
			}
		}
	}
}

// TestBigCacheEqualsTinyCache: for linear queries the result must be
// independent of cache size — the whole point of exact merging.
func TestBigCacheEqualsTinyCache(t *testing.T) {
	recs := testTrace(t)
	ex := queries.ByName("Latency EWMA")
	plan1 := compilePlan(t, ex.Source)
	plan2 := compilePlan(t, ex.Source)

	big, err := RunPlan(plan1, &trace.SliceSource{Records: recs}, Config{Geometry: kvstore.FullyAssociative(1 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	tiny, err := RunPlan(plan2, &trace.SliceSource{Records: recs}, Config{Geometry: kvstore.HashTable(64)})
	if err != nil {
		t.Fatal(err)
	}
	tablesMatch(t, "ewma big-vs-tiny", tiny[ex.Result], big[ex.Result], 5, 1e-9, true)
}

// TestDisableExactMergeDegrades: with merging off, heavy churn must leave
// invalid keys even for a linear fold (the ablation of §3.2's mechanism).
func TestDisableExactMergeDegrades(t *testing.T) {
	recs := testTrace(t)
	ex := queries.ByName("Per-flow counters")
	plan := compilePlan(t, ex.Source)
	dp, err := New(plan, Config{
		Geometry:          kvstore.SetAssociative(256, 8),
		DisableExactMerge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	valid, total := dp.Accuracy(0)
	if valid == total {
		t.Errorf("exact-merge ablation: all %d keys still valid — no degradation observed", total)
	}
}

// TestSelectOverTMirrorsMatches checks the match-and-mirror path.
func TestSelectOverTMirrorsMatches(t *testing.T) {
	recs := testTrace(t)
	src := "SELECT srcip, qid WHERE tout - tin > 1ms\n"
	plan := compilePlan(t, src)
	truth, err := exec.Run(plan, &trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunPlan(plan, &trace.SliceSource{Records: recs}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tg, tt := got["_1"], truth["_1"]
	if len(tg.Rows) != len(tt.Rows) {
		t.Fatalf("mirrored %d rows, want %d", len(tg.Rows), len(tt.Rows))
	}
	for i := range tt.Rows {
		for j := range tt.Rows[i] {
			if tg.Rows[i][j] != tt.Rows[i][j] {
				t.Fatalf("row %d differs: %v vs %v", i, tg.Rows[i], tt.Rows[i])
			}
		}
	}
	// The WHERE must actually filter something.
	if len(tt.Rows) == 0 {
		t.Error("predicate matched nothing; trace lacks >1ms delays")
	}
	var total int
	for range recs {
		total++
	}
	if len(tt.Rows) == total {
		t.Error("predicate matched everything; test is vacuous")
	}
}

// TestEvictionObserver wires Config.OnEvict.
func TestEvictionObserver(t *testing.T) {
	recs := testTrace(t)
	plan := compilePlan(t, "SELECT COUNT GROUPBY 5tuple\n")
	var seen int
	dp, err := New(plan, Config{
		Geometry: kvstore.HashTable(64),
		OnEvict:  func(prog int, ev *kvstore.Eviction) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}
	st := dp.Stats()[0]
	if uint64(seen) != st.Evictions+st.Flushed {
		t.Errorf("observer saw %d evictions, cache reports %d", seen, st.Evictions+st.Flushed)
	}
	if dp.StoreStats()[0].Keys == 0 {
		t.Error("backing store empty")
	}
}

// TestProcessInlineShardedMatchesRun pins the "serial but
// shard-equivalent" contract of the single-record Process path: driving
// a sharded datapath record by record must produce the same tables as
// streaming through Run's parallel workers.
func TestProcessInlineShardedMatchesRun(t *testing.T) {
	plan := compilePlan(t, `R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT qid, tin WHERE proto == 6`)
	recs := testTrace(t)
	cfg := Config{Geometry: kvstore.SetAssociative(1<<10, 8), Shards: 4}

	viaRun, err := New(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := viaRun.Run(&trace.SliceSource{Records: recs}); err != nil {
		t.Fatal(err)
	}

	inline, err := New(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		inline.Process(&recs[i])
	}
	inline.Flush()
	if inline.Packets() != viaRun.Packets() || inline.Packets() != uint64(len(recs)) {
		t.Fatalf("packets: inline %d, run %d, want %d", inline.Packets(), viaRun.Packets(), len(recs))
	}

	want, got := viaRun.Tables(), inline.Tables()
	for name, wt := range want {
		gt := got[name]
		if gt == nil || len(gt.Rows) != len(wt.Rows) {
			t.Fatalf("table %s: inline rows %v, run rows %d", name, gt, len(wt.Rows))
		}
		for i := range wt.Rows {
			for j := range wt.Rows[i] {
				if math.Float64bits(gt.Rows[i][j]) != math.Float64bits(wt.Rows[i][j]) {
					t.Fatalf("table %s row %d col %d: %v != %v", name, i, j, gt.Rows[i][j], wt.Rows[i][j])
				}
			}
		}
	}
}

// streamSource hides a slice behind the plain Source interface, so Run
// cannot take its SliceSource shortcut; with failAt > 0 it returns
// errStream in place of record failAt.
type streamSource struct {
	recs   []trace.Record
	pos    int
	failAt int
}

var errStream = errors.New("stream broke")

func (s *streamSource) Next(rec *trace.Record) error {
	if s.failAt > 0 && s.pos == s.failAt {
		return errStream
	}
	if s.pos >= len(s.recs) {
		return io.EOF
	}
	*rec = s.recs[s.pos]
	s.pos++
	return nil
}

// TestRunStreamingSourceMatchesSlice pins Run over a streaming source to
// the in-memory replay, bit for bit, and its error contract: on a source
// error mid-block the records read before it are applied, the error is
// returned and nothing is flushed.
func TestRunStreamingSourceMatchesSlice(t *testing.T) {
	plan := compilePlan(t, `R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT qid, tin WHERE proto == 6`)
	recs := testTrace(t)
	cfg := Config{Geometry: kvstore.SetAssociative(1<<10, 8)}
	run := func(src trace.Source) (*Datapath, error) {
		dp, err := New(plan, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dp, dp.Run(src)
	}
	sameTables := func(what string, got, want *Datapath) {
		t.Helper()
		if got.Packets() != want.Packets() {
			t.Fatalf("%s: packets %d, want %d", what, got.Packets(), want.Packets())
		}
		wt, gt := want.Tables(), got.Tables()
		for name, w := range wt {
			g := gt[name]
			if g == nil || len(g.Rows) != len(w.Rows) {
				t.Fatalf("%s: table %s: got %v, want %d rows", what, name, g, len(w.Rows))
			}
			for i := range w.Rows {
				for j := range w.Rows[i] {
					if math.Float64bits(g.Rows[i][j]) != math.Float64bits(w.Rows[i][j]) {
						t.Fatalf("%s: table %s row %d col %d: %v != %v", what, name, i, j, g.Rows[i][j], w.Rows[i][j])
					}
				}
			}
		}
	}

	want, err := run(&trace.SliceSource{Records: recs})
	if err != nil {
		t.Fatal(err)
	}
	got, err := run(&streamSource{recs: recs})
	if err != nil {
		t.Fatal(err)
	}
	sameTables("stream", got, want)

	const failAt = 1000 // mid-block: not a multiple of the block size
	broken, err := run(&streamSource{recs: recs, failAt: failAt})
	if !errors.Is(err, errStream) {
		t.Fatalf("Run = %v, want %v", err, errStream)
	}
	if st := broken.Stats()[0]; st.Flushed != 0 {
		t.Fatalf("Run flushed %d entries after a source error", st.Flushed)
	}
	broken.Flush()
	prefix, err := run(&trace.SliceSource{Records: recs[:failAt]})
	if err != nil {
		t.Fatal(err)
	}
	sameTables("prefix before error", broken, prefix)
}
