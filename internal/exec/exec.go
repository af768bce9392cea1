// Package exec evaluates compiled query plans in software. It serves two
// roles:
//
//   - Ground truth: Run streams a record source through every stage with
//     unbounded memory, yielding the results an infinite switch would
//     produce. Integration tests compare the cache+merge datapath against
//     it.
//   - Collector: the downstream (off-switch) stages of a plan — selects
//     over derived tables, second-level GROUPBYs, joins — are evaluated
//     here in production too, over tables materialized from the backing
//     store (Engine.SetTable).
package exec

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"perfq/internal/compiler"
	"perfq/internal/fold"
	"perfq/internal/packet"
	"perfq/internal/shard"
	"perfq/internal/trace"
)

// Table is a materialized query result.
type Table struct {
	Schema []string
	Rows   [][]float64
}

// cmpFloat is a total order over float64: NaN sorts before every other
// value (and equal to itself). A comparator built on `a != b` is not
// antisymmetric when NaN appears in rows (NaN != NaN, yet neither side
// is smaller), which makes sort output depend on the input permutation —
// fatal for the sharded datapath, whose merged tables must be
// reproducible regardless of shard count.
func cmpFloat(a, b float64) int {
	an, bn := math.IsNaN(a), math.IsNaN(b)
	switch {
	case an && bn:
		return 0
	case an:
		return -1
	case bn:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Sort orders rows lexicographically (NaN smallest) for deterministic
// output: any permutation of the same multiset of rows sorts to the same
// sequence. The comparator is branch-minimal: the three float compares
// decide every non-NaN case, and only the fall-through (all three false,
// so NaN is involved) delegates to cmpFloat's total order.
func (t *Table) Sort() {
	slices.SortFunc(t.Rows, func(a, b []float64) int {
		for k := range a {
			x, y := a[k], b[k]
			if x < y {
				return -1
			}
			if x > y {
				return 1
			}
			if x == y {
				continue
			}
			if c := cmpFloat(x, y); c != 0 {
				return c
			}
		}
		return 0
	})
}

// groupEntry is one group's accumulator during ground-truth evaluation.
type groupEntry struct {
	keyVals []float64
	state   []float64
}

// Engine evaluates a plan.
type Engine struct {
	plan   *compiler.Plan
	tables map[string]*Table
	// Per over-T stage streaming state.
	groups map[string]map[packet.Key128]*groupEntry
	srows  map[string][][]float64
	preset map[string]bool
}

// New creates an engine for the plan.
func New(plan *compiler.Plan) *Engine {
	return &Engine{
		plan:   plan,
		tables: map[string]*Table{},
		groups: map[string]map[packet.Key128]*groupEntry{},
		srows:  map[string][][]float64{},
		preset: map[string]bool{},
	}
}

// SetTable injects a pre-computed result for a stage (collector mode: the
// table came from the switch datapath's backing store). The stage is then
// skipped during evaluation.
func (e *Engine) SetTable(name string, t *Table) {
	e.tables[name] = t
	e.preset[name] = true
}

// ProcessRecord streams one record through every stage that reads T and is
// not preset.
func (e *Engine) ProcessRecord(rec *trace.Record) {
	in := fold.Input{Rec: rec}
	for _, st := range e.plan.Stages {
		if e.preset[st.Name] || st.Input != nil || st.Kind == compiler.KindJoin {
			continue
		}
		switch st.Kind {
		case compiler.KindSelect:
			e.processSelect(st, &in)
		case compiler.KindGroup:
			e.processGroup(st, rec, &in)
		}
	}
}

// predCode evaluates a predicate, preferring its compiled code (nil
// pred means match-all).
func predCode(code *fold.Code, p fold.Pred, in *fold.Input) bool {
	if code != nil {
		return code.EvalBool(in, nil)
	}
	if p != nil {
		return fold.EvalPred(p, in, nil)
	}
	return true
}

// exprCode evaluates an expression, preferring its compiled code.
func exprCode(code *fold.Code, e fold.Expr, in *fold.Input) float64 {
	if code != nil {
		return code.Eval(in, nil)
	}
	return fold.EvalExpr(e, in, nil)
}

// stageWhere evaluates a stage's WHERE, preferring the compiled code.
func stageWhere(st *compiler.Stage, in *fold.Input) bool {
	return predCode(st.WhereCode, st.Where, in)
}

// stageCol evaluates output column i, preferring the compiled code.
func stageCol(st *compiler.Stage, i int, in *fold.Input) float64 {
	var code *fold.Code
	if st.ColCodes != nil {
		code = st.ColCodes[i]
	}
	return exprCode(code, st.Cols[i], in)
}

// processSelect streams one record through a select-over-T stage.
func (e *Engine) processSelect(st *compiler.Stage, in *fold.Input) {
	if !stageWhere(st, in) {
		return
	}
	row := make([]float64, len(st.Cols))
	for i := range row {
		row[i] = stageCol(st, i, in)
	}
	e.srows[st.Name] = append(e.srows[st.Name], row)
}

// processGroup streams one record through a group-over-T stage.
func (e *Engine) processGroup(st *compiler.Stage, rec *trace.Record, in *fold.Input) {
	if !stageWhere(st, in) {
		return
	}
	g := e.groups[st.Name]
	if g == nil {
		g = map[packet.Key128]*groupEntry{}
		e.groups[st.Name] = g
	}
	nk := st.Key.NumComponents()
	var kv [8]float64
	st.Key.Values(rec, kv[:nk])
	key := st.Key.Pack(kv[:nk])
	ent := g[key]
	if ent == nil {
		ent = &groupEntry{
			keyVals: append([]float64(nil), kv[:nk]...),
			state:   make([]float64, st.Fold.StateLen()),
		}
		st.Fold.Init(ent.state)
		g[key] = ent
	}
	st.Fold.Update(ent.state, in)
}

// RangeGroup iterates an over-T group stage's accumulators: the packed
// store key, key component values and raw state vector. Iteration order
// is unspecified (each key appears exactly once); the fabric collector's
// ground-truth path consumes this, mirroring Datapath.RangeMember.
func (e *Engine) RangeGroup(name string, fn func(key packet.Key128, keyVals, state []float64) bool) {
	for key, ent := range e.groups[name] {
		if !fn(key, ent.keyVals, ent.state) {
			return
		}
	}
}

// SelectRows returns the accumulated rows of a select-over-T stage (a
// multiset; callers sort after merging).
func (e *Engine) SelectRows(name string) [][]float64 { return e.srows[name] }

// Finish materializes every remaining stage in order and returns all
// tables by stage name.
func (e *Engine) Finish() (map[string]*Table, error) {
	for _, st := range e.plan.Stages {
		if e.preset[st.Name] {
			continue
		}
		switch {
		case st.Kind == compiler.KindJoin:
			t, err := e.runJoin(st)
			if err != nil {
				return nil, err
			}
			e.tables[st.Name] = t
		case st.Input == nil:
			e.tables[st.Name] = e.materializeT(st)
		default:
			t, err := e.runDerived(st)
			if err != nil {
				return nil, err
			}
			e.tables[st.Name] = t
		}
	}
	return e.tables, nil
}

// materializeT converts streaming state of an over-T stage into a table.
func (e *Engine) materializeT(st *compiler.Stage) *Table {
	t := &Table{Schema: st.Schema}
	switch st.Kind {
	case compiler.KindSelect:
		t.Rows = e.srows[st.Name]
	case compiler.KindGroup:
		t.Rows = materializeGroup(st, e.groups[st.Name])
	}
	t.Sort()
	return t
}

// materializeGroup renders group accumulators as rows (key values then
// projected value columns).
func materializeGroup(st *compiler.Stage, groups map[packet.Key128]*groupEntry) [][]float64 {
	rows := make([][]float64, 0, len(groups))
	for _, ent := range groups {
		rows = append(rows, GroupRow(st, ent.keyVals, ent.state))
	}
	return rows
}

// GroupRow builds one output row of a group stage from its key values and
// final state vector.
func GroupRow(st *compiler.Stage, keyVals, state []float64) []float64 {
	row := make([]float64, 0, len(keyVals)+len(st.Out))
	row = append(row, keyVals...)
	return AppendOutCols(st, state, row)
}

// AppendOutCols appends a group stage's projected value columns to row —
// the append-into-caller-storage form bulk materialization uses to build
// rows in a slab.
func AppendOutCols(st *compiler.Stage, state, row []float64) []float64 {
	var in fold.Input
	for i, oc := range st.Out {
		switch {
		case st.OutStateIdx != nil && st.OutStateIdx[i] >= 0:
			row = append(row, state[st.OutStateIdx[i]])
		case st.OutCodes != nil && st.OutCodes[i] != nil:
			row = append(row, st.OutCodes[i].Eval(&in, state))
		default:
			row = append(row, fold.EvalExpr(oc.Expr, &in, state))
		}
	}
	return row
}

// runDerived evaluates a select or group stage over an upstream table.
func (e *Engine) runDerived(st *compiler.Stage) (*Table, error) {
	input, ok := e.tables[st.Input.Name]
	if !ok {
		return nil, fmt.Errorf("exec: stage %s input %s not materialized", st.Name, st.Input.Name)
	}
	t := &Table{Schema: st.Schema}
	switch st.Kind {
	case compiler.KindSelect:
		for _, row := range input.Rows {
			in := fold.Input{Cols: row}
			if !stageWhere(st, &in) {
				continue
			}
			out := make([]float64, len(st.Cols))
			for i := range out {
				out[i] = stageCol(st, i, &in)
			}
			t.Rows = append(t.Rows, out)
		}
	case compiler.KindGroup:
		groups := map[packet.Key128]*groupEntry{}
		nk := st.Key.NumComponents()
		for _, row := range input.Rows {
			in := fold.Input{Cols: row}
			if !stageWhere(st, &in) {
				continue
			}
			var kv [8]float64
			st.Key.ValuesRow(row, kv[:nk])
			key := st.Key.Pack(kv[:nk])
			ent := groups[key]
			if ent == nil {
				ent = &groupEntry{
					keyVals: append([]float64(nil), kv[:nk]...),
					state:   make([]float64, st.Fold.StateLen()),
				}
				st.Fold.Init(ent.state)
				groups[key] = ent
			}
			st.Fold.Update(ent.state, &in)
		}
		t.Rows = materializeGroup(st, groups)
	default:
		return nil, fmt.Errorf("exec: runDerived on %v stage", st.Kind)
	}
	t.Sort()
	return t, nil
}

// runJoin evaluates the restricted equi-join: both inputs are keyed by
// their first OnCols columns, which uniquely identify rows.
func (e *Engine) runJoin(st *compiler.Stage) (*Table, error) {
	left, ok := e.tables[st.Left.Name]
	if !ok {
		return nil, fmt.Errorf("exec: join %s left input %s not materialized", st.Name, st.Left.Name)
	}
	right, ok := e.tables[st.Right.Name]
	if !ok {
		return nil, fmt.Errorf("exec: join %s right input %s not materialized", st.Name, st.Right.Name)
	}
	k := st.OnCols
	// Every build-side key is encoded back to back into one string and
	// the index keys are substrings of it, so the build allocates once
	// rather than once per row; probes look up through a reused scratch
	// encoding (a map index by string(buf) does not allocate).
	kw := 8 * k
	enc := make([]byte, 0, kw*len(right.Rows))
	for _, row := range right.Rows {
		enc = appendRowKey(enc, row[:k])
	}
	keys := string(enc)
	index := make(map[string][]float64, len(right.Rows))
	for i, row := range right.Rows {
		index[keys[i*kw:(i+1)*kw]] = row
	}
	// Matches are bounded by the smaller side when keys are unique, so
	// one slab chunk of that many output rows usually holds them all.
	n := min(len(left.Rows), len(right.Rows))
	width := k + len(st.JoinCols)
	t := &Table{Schema: st.Schema, Rows: make([][]float64, 0, n)}
	var (
		probe    = make([]byte, 0, kw)
		combined []float64 // reused: predicate and column codes only read it
		slab     []float64
		in       fold.Input
	)
	for _, lrow := range left.Rows {
		probe = appendRowKey(probe[:0], lrow[:k])
		rrow, ok := index[string(probe)]
		if !ok {
			continue
		}
		combined = append(append(combined[:0], lrow...), rrow...)
		in.Cols = combined
		if !predCode(st.JoinWhereCode, st.JoinWhere, &in) {
			continue
		}
		if len(slab)+width > cap(slab) {
			slab = make([]float64, 0, max(n, 1)*width)
		}
		start := len(slab)
		slab = append(slab, lrow[:k]...)
		for i, c := range st.JoinCols {
			var code *fold.Code
			if st.JoinColCodes != nil {
				code = st.JoinColCodes[i]
			}
			slab = append(slab, exprCode(code, c, &in))
		}
		t.Rows = append(t.Rows, slab[start:len(slab):len(slab)])
	}
	t.Sort()
	return t, nil
}

// appendRowKey appends the hash-join encoding of a key prefix: each value
// truncated to int64 and stored as 8 little-endian bytes.
func appendRowKey(b []byte, vals []float64) []byte {
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

// Run evaluates the full plan over a source with unbounded memory.
func Run(plan *compiler.Plan, src trace.Source) (map[string]*Table, error) {
	e := New(plan)
	var rec trace.Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e.ProcessRecord(&rec)
	}
	return e.Finish()
}

// RunParallel evaluates the plan over a source with unbounded memory
// across n hash-partitioned workers: each over-T GROUPBY stage's records
// are routed by grouping key (internal/shard), so per-worker group
// tables are disjoint and merge by concatenation; select-over-T rows are
// spread round-robin and merged as a multiset. Derived stages and joins
// run once over the merged (sorted) tables, exactly as the collector
// does, which makes the output byte-identical to Run for every plan.
func RunParallel(plan *compiler.Plan, src trace.Source, n int) (map[string]*Table, error) {
	var groupStgs, selectStgs []*compiler.Stage
	for _, st := range plan.Stages {
		if st.Input != nil || st.Kind == compiler.KindJoin {
			continue
		}
		switch st.Kind {
		case compiler.KindGroup:
			groupStgs = append(groupStgs, st)
		case compiler.KindSelect:
			selectStgs = append(selectStgs, st)
		}
	}
	if n <= 1 || len(groupStgs)+1 > shard.MaxTargets {
		return Run(plan, src)
	}

	workers := make([]*Engine, n)
	for i := range workers {
		workers[i] = New(plan)
	}
	// Stages sharing a GROUPBY key share one key extraction per record.
	var keys []shard.KeyFunc
	var keySpecs []*compiler.KeySpec
	targets := make([]int, len(groupStgs))
	for i, st := range groupStgs {
		targets[i] = -1
		for g, ks := range keySpecs {
			if ks.Equal(st.Key) {
				targets[i] = g
				break
			}
		}
		if targets[i] < 0 {
			keySpecs = append(keySpecs, st.Key)
			keys = append(keys, st.Key.Of)
			targets[i] = len(keys) - 1
		}
	}
	var freeMask uint64
	if len(selectStgs) > 0 {
		freeMask = 1 << uint(len(groupStgs))
	}
	_, err := shard.Run(shard.Config{Shards: n, Keys: keys, Targets: targets, FreeMask: freeMask}, src,
		func(s int, b *shard.Batch) {
			w := workers[s]
			for r := range b.Recs {
				rec, mask := &b.Recs[r], b.Masks[r]
				in := fold.Input{Rec: rec}
				if mask&freeMask != 0 {
					for _, st := range selectStgs {
						w.processSelect(st, &in)
					}
				}
				for i, st := range groupStgs {
					if mask&(1<<uint(i)) != 0 {
						w.processGroup(st, rec, &in)
					}
				}
			}
		})
	if err != nil {
		return nil, err
	}

	// Merge the disjoint per-worker partials, then evaluate the derived
	// stages once over the merged tables (the collector's own path).
	final := New(plan)
	for _, st := range groupStgs {
		var rows [][]float64
		for _, w := range workers {
			rows = append(rows, materializeGroup(st, w.groups[st.Name])...)
		}
		t := &Table{Schema: st.Schema, Rows: rows}
		t.Sort()
		final.SetTable(st.Name, t)
	}
	for _, st := range selectStgs {
		var rows [][]float64
		for _, w := range workers {
			rows = append(rows, w.srows[st.Name]...)
		}
		t := &Table{Schema: st.Schema, Rows: rows}
		t.Sort()
		final.SetTable(st.Name, t)
	}
	return final.Finish()
}
