package perfq

import (
	"testing"
	"time"

	"perfq/internal/trace"
	"perfq/internal/tracegen"
)

// TestBulkPathsRunBlockLoop pins the single drive path: a sharded
// windowed Stream (worker pool) and fabric runs (the pump, with plain
// and with sharded switch datapaths, the latter applied inline inside
// the pump workers) put every record through the columnar block loop,
// so the scalar path counter stays at zero while the block counter
// covers every packet.
func TestBulkPathsRunBlockLoop(t *testing.T) {
	forceProcs(t)
	cfg := tracegen.DCConfig(5, time.Second)
	recs, err := trace.Collect(tracegen.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
	tp := equivFabric()
	frecs := fabricTrace(t, tp, 100)
	q := MustCompile(`R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY qid WHERE tout == infinity`)

	check := func(name string, m *Metrics) {
		t.Helper()
		packets, _ := m.Value("perfq_packets_total")
		block, _ := m.Value("perfq_path_block_records_total")
		scalar, ok := m.Value("perfq_path_scalar_records_total")
		if !ok {
			t.Fatalf("%s: perfq_path_scalar_records_total not registered", name)
		}
		if scalar != 0 {
			t.Errorf("%s: %.0f records took the scalar path, want 0", name, scalar)
		}
		if packets == 0 || block < packets {
			t.Errorf("%s: block path saw %.0f records of %.0f packets", name, block, packets)
		}
	}

	m := NewMetrics()
	_, err = q.Stream(Records(recs), func(*WindowResult) error { return nil },
		WithCache(1<<10, 8), WithShards(2),
		WithWindow(WindowSpec{Count: 5000}), WithMetrics(m))
	if err != nil {
		t.Fatal(err)
	}
	check("sharded stream", m)

	for _, shards := range []int{1, 2} {
		m := NewMetrics()
		if _, err := q.Run(Records(frecs), WithCache(1<<12, 8), WithFabric(tp),
			WithShards(shards), WithMetrics(m)); err != nil {
			t.Fatal(err)
		}
		check("fabric", m)
	}
}
