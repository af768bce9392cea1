package perfq

import (
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"perfq/internal/fabric"
	"perfq/internal/kvstore"
	"perfq/internal/queries"
	"perfq/internal/switchsim"
	"perfq/internal/trace"
)

// hiddenSource hides a slice behind a plain Source, so a run reads it
// record by record instead of taking it whole.
type hiddenSource struct{ s trace.SliceSource }

func (h *hiddenSource) Next(rec *Record) error { return h.s.Next(rec) }

// failingSource yields recs[:n] and then fails.
type failingSource struct {
	recs []Record
	n    int
}

var errSourceFailed = errors.New("source failed")

func (f *failingSource) Next(rec *Record) error {
	if f.n == 0 {
		return errSourceFailed
	}
	if len(f.recs) == 0 {
		return io.EOF
	}
	*rec = f.recs[0]
	f.recs, f.n = f.recs[1:], f.n-1
	return nil
}

// engineRun is the engine-level run the facade must reproduce: Run,
// then the collector, the cache stats and the per-program accuracy.
type engineRun interface {
	Run(src trace.Source) error
	engine
}

// newEngine builds the engine a facade run with opts would build.
func newEngine(t *testing.T, q *Query, opts []RunOption) (engineRun, *fabric.Fabric) {
	t.Helper()
	cfg := newRunConfig(opts)
	if cfg.topo != nil {
		f, err := fabric.New(q.plan, cfg.topo, fabric.Config{Switch: cfg.sw})
		if err != nil {
			t.Fatal(err)
		}
		return f, f
	}
	dp, err := switchsim.New(q.plan, cfg.sw)
	if err != nil {
		t.Fatal(err)
	}
	return dp, nil
}

// requireRunMatchesEngine checks a facade result against the engine
// path over the same records: tables, eviction counts and accuracy
// bit-identical, and on fabric runs every per-switch table too.
func requireRunMatchesEngine(t *testing.T, q *Query, res *Results, recs []Record, opts []RunOption) {
	t.Helper()
	eng, fab := newEngine(t, q, opts)
	if err := eng.Run(Records(recs)); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.tables) != len(want) {
		t.Fatalf("%d tables, engine has %d", len(res.tables), len(want))
	}
	for name, w := range want {
		requireTablesIdentical(t, name, res.Table(name), &Table{Schema: w.Schema, Rows: w.Rows})
	}
	ev, fl := evictions(eng.Stats())
	if res.Evictions != ev || res.Flushed != fl {
		t.Fatalf("evictions/flushed %d/%d, engine %d/%d", res.Evictions, res.Flushed, ev, fl)
	}
	valid, total := 0, 0
	for i := range q.plan.Programs {
		v, tot := eng.Accuracy(i)
		if gv, gt := res.Accuracy(i); gv != v || gt != tot {
			t.Fatalf("program %d accuracy %d/%d, engine %d/%d", i, gv, gt, v, tot)
		}
		valid, total = valid+v, total+tot
	}
	if len(q.plan.Programs) > 0 && (res.ValidKeys != valid || res.TotalKeys != total) {
		t.Fatalf("keys valid %d/%d, engine %d/%d", res.ValidKeys, res.TotalKeys, valid, total)
	}
	if res.Windows() != nil || res.WindowCount() != 0 {
		t.Fatalf("a run without WithWindow reports %d windows", res.WindowCount())
	}
	if fab == nil {
		return
	}
	for _, sw := range fab.Switches() {
		tabs, err := fab.SwitchTables(sw)
		if err != nil {
			t.Fatal(err)
		}
		for name, w := range tabs {
			requireTablesIdentical(t, fmt.Sprintf("%s/%s", fab.SwitchName(sw), name),
				res.SwitchTable(sw, name), &Table{Schema: w.Schema, Rows: w.Rows})
		}
	}
}

// TestShardedRunMatchesEngine: Query.Run is a one-window stream, so it
// must report exactly what the engine's own Run + Collect + Stats +
// Accuracy report — sharded or not, over a fabric, from a slice or a
// streaming source, and for an empty source. A source error is returned
// before anything is flushed.
func TestShardedRunMatchesEngine(t *testing.T) {
	forceProcs(t)
	churn := churnTrace(t)
	tp := equivFabric()
	fabRecs := fabricTrace(t, tp, 200)
	layouts := []struct {
		name string
		recs []Record
		opts []RunOption
	}{
		{"shards-1", churn, []RunOption{WithCache(1<<10, 8)}},
		{"shards-2", churn, []RunOption{WithCache(1<<10, 8), WithShards(2)}},
		{"fabric", fabRecs, []RunOption{WithCache(1<<12, 8), WithFabric(tp)}},
		{"fabric-shards-2", fabRecs, []RunOption{WithCache(1<<12, 8), WithFabric(tp), WithShards(2)}},
	}
	for _, name := range []string{"Per-flow loss rate", "TCP non-monotonic"} {
		q := MustCompile(queries.ByName(name).Source)
		for _, l := range layouts {
			for _, streaming := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/streaming=%v", name, l.name, streaming), func(t *testing.T) {
					src := Records(l.recs)
					if streaming {
						src = &hiddenSource{s: trace.SliceSource{Records: l.recs}}
					}
					res, err := q.Run(src, l.opts...)
					if err != nil {
						t.Fatal(err)
					}
					if res.Evictions == 0 {
						t.Fatal("no capacity evictions; the cache is too large to test the merge path")
					}
					requireRunMatchesEngine(t, q, res, l.recs, l.opts)
				})
			}
			t.Run(fmt.Sprintf("%s/%s/empty", name, l.name), func(t *testing.T) {
				res, err := q.Run(Records(nil), l.opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, st := range q.plan.Stages {
					if tab := res.Table(st.Name); tab == nil || tab.Len() != 0 {
						t.Fatalf("stage %s of an empty run: %v", st.Name, tab)
					}
				}
				if res.ValidKeys != 0 || res.TotalKeys != 0 {
					t.Fatalf("empty run reports %d/%d keys valid, want 0/0", res.ValidKeys, res.TotalKeys)
				}
				requireRunMatchesEngine(t, q, res, nil, l.opts)
			})
			t.Run(fmt.Sprintf("%s/%s/source-error", name, l.name), func(t *testing.T) {
				var flushed atomic.Int64
				countFlushes := func(c *runConfig) {
					c.sw.OnEvict = func(_ int, ev *kvstore.Eviction) {
						if ev.Reason == kvstore.EvictFlush {
							flushed.Add(1)
						}
					}
				}
				opts := append([]RunOption{countFlushes}, l.opts...)
				res, err := q.Run(&failingSource{recs: l.recs, n: 1000}, opts...)
				if !errors.Is(err, errSourceFailed) || res != nil {
					t.Fatalf("Run = %v, %v; want the source's error", res, err)
				}
				if n := flushed.Load(); n != 0 {
					t.Fatalf("a failed run flushed %d entries", n)
				}
			})
		}
	}
}
