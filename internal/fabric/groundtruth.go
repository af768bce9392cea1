package fabric

import (
	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/packet"
	"perfq/internal/topo"
	"perfq/internal/trace"
)

// engineSource adapts an unbounded-memory exec engine (one switch's
// sub-stream) to the collector's state-source interface. Every key is
// trivially valid: with no cache there are no epochs.
type engineSource struct {
	plan *compiler.Plan
	eng  *exec.Engine
}

func (s engineSource) RangeMember(pi, mi int, fn func(key packet.Key128, keyVals, state []float64, valid bool) bool) {
	st := s.plan.Programs[pi].Members[mi]
	s.eng.RangeGroup(st.Name, func(key packet.Key128, keyVals, state []float64) bool {
		return fn(key, keyVals, state, true)
	})
}

func (s engineSource) SelectRows(name string) [][]float64 { return s.eng.SelectRows(name) }

// GroundTruth evaluates the plan the way an infinite-memory fabric
// would: records are demultiplexed to one unbounded exec engine per
// switch, per-switch states are reconciled by the same collector the
// datapath uses (same merge modes, same switch order, same float
// associativity), and downstream stages run over the merged tables. This
// is the reference the fabric equivalence suite compares the cache +
// backing-store fabric against.
func GroundTruth(plan *compiler.Plan, t *topo.Topology, src trace.Source) (map[string]*exec.Table, error) {
	ids := t.SwitchIDs()
	engines := make(map[uint16]*exec.Engine, len(ids))
	srcs := make([]switchSource, len(ids))
	for i, id := range ids {
		eng := exec.New(plan)
		engines[id] = eng
		srcs[i] = engineSource{plan: plan, eng: eng}
	}
	err := trace.Blocks(src, batch, func(recs []trace.Record) {
		for i := range recs {
			if eng, ok := engines[recs[i].QID.Switch()]; ok {
				eng.ProcessRecord(&recs[i])
			}
		}
	})
	if err != nil {
		return nil, err
	}
	tabs, _ := networkTables(plan, srcs)
	eng := exec.New(plan)
	for name, tab := range tabs {
		eng.SetTable(name, tab)
	}
	return eng.Finish()
}
