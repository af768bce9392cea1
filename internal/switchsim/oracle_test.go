package switchsim

import (
	"math"
	"math/rand"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/exec"
	"perfq/internal/fold"
	"perfq/internal/kvstore"
	"perfq/internal/packet"
	"perfq/internal/queries"
	"perfq/internal/shard"
	"perfq/internal/trace"
)

// process is the scalar oracle of the block loop: it applies one routed
// record to the targets this shard owns, one program at a time, through
// the scalar Input and Cache.Process. all bypasses the mask (the shard
// owns every target).
func (sh *shardState) process(d *Datapath, rec *trace.Record, mask uint64, all bool) {
	sh.nScalarRecs++
	hp := d.hot
	sc := &sh.scratch
	sc.in.Rec = rec
	for _, f := range hp.fields {
		sc.fields[f] = float64(rec.Field(f))
	}
	in := &sc.in

	if (all || mask&hp.selBit != 0) && len(hp.selects) > 0 {
		for si := range hp.selects {
			sel := &hp.selects[si]
			if sel.where != nil {
				if !sel.where.EvalBool(in, nil) {
					continue
				}
			} else if sel.st.Where != nil && !fold.EvalPred(sel.st.Where, in, nil) {
				continue
			}
			row := sc.slab.take(len(sel.st.Cols))
			for i := range row {
				if c := sel.cols[i]; c != nil {
					row[i] = c.Eval(in, nil)
				} else {
					row[i] = fold.EvalExpr(sel.st.Cols[i], in, nil)
				}
			}
			sh.selRows[si] = append(sh.selRows[si], row)
		}
	}

	var keys [shard.MaxTargets]packet.Key128
	var computed uint64
	for pi := range hp.progs {
		if !all && mask&(1<<uint(pi)) == 0 {
			continue
		}
		ph := &hp.progs[pi]
		if !ph.matches(in) {
			continue
		}
		g := ph.group
		if computed&(1<<uint(g)) == 0 {
			keys[g] = hp.groups[g].spec.Of(rec)
			computed |= 1 << uint(g)
		}
		ps := sh.progs[pi]
		if ps.cache.Process(keys[g], in) && ps.keyVals != nil {
			if _, ok := ps.keyVals[keys[g]]; !ok {
				kg := &hp.groups[g]
				var kv [8]float64
				kg.spec.Values(rec, kv[:kg.nk])
				ps.keyVals[keys[g]] = sc.slab.copyOf(kv[:kg.nk])
			}
		}
	}
}

// matches reports whether any member's guard admits the record.
func (ph *progHot) matches(in *fold.Input) bool {
	if ph.always {
		return true
	}
	for i, w := range ph.wheres {
		if w != nil {
			if w.EvalBool(in, nil) {
				return true
			}
		} else if p := ph.sp.Members[i].Where; p == nil || fold.EvalPred(p, in, nil) {
			return true
		}
	}
	return false
}

// oracleQueries are the Figure 2 queries (digest keys, fused JOIN
// members) plus a plan mixing programs with different GROUPBY keys, a
// guarded program and a select over T.
func oracleQueries() map[string]string {
	qs := map[string]string{
		"mixed": `R1 = SELECT COUNT GROUPBY srcip
R2 = SELECT SUM(pkt_len) GROUPBY 5tuple WHERE proto == 6
R3 = SELECT COUNT GROUPBY qid WHERE tout == infinity
R4 = SELECT srcip, qid, tout - tin WHERE tout - tin > 1ms`,
	}
	for _, ex := range queries.Fig2 {
		qs[ex.Name] = ex.Source
	}
	return qs
}

// stripCodes forces the interpreter fallbacks: member WHEREs and
// select-over-T predicates and columns lose their bytecode.
func stripCodes(plan *compiler.Plan) {
	for _, sp := range plan.Programs {
		for i := range sp.MemberWhere {
			sp.MemberWhere[i] = nil
		}
	}
	for _, st := range plan.Stages {
		if st.Kind == compiler.KindSelect && st.Input == nil {
			st.WhereCode = nil
			for i := range st.ColCodes {
				st.ColCodes[i] = nil
			}
		}
	}
}

// sameState requires bit-identical tables, cache and store statistics
// and accuracy from two datapaths over the same plan.
func sameState(t *testing.T, got, want *Datapath) {
	t.Helper()
	got.Flush()
	want.Flush()
	gt, wt := got.Tables(), want.Tables()
	if len(gt) != len(wt) {
		t.Fatalf("%d tables, want %d", len(gt), len(wt))
	}
	for name, w := range wt {
		if !sameRows(gt[name], w) {
			t.Fatalf("table %s: block path and scalar oracle differ (%d vs %d rows)", name, len(gt[name].Rows), len(w.Rows))
		}
	}
	for i := range want.plan.Programs {
		if g, w := got.Stats()[i], want.Stats()[i]; g != w {
			t.Fatalf("program %d cache stats %+v, want %+v", i, g, w)
		}
		if g, w := got.StoreStats()[i], want.StoreStats()[i]; g != w {
			t.Fatalf("program %d store stats %+v, want %+v", i, g, w)
		}
		gv, gtot := got.Accuracy(i)
		wv, wtot := want.Accuracy(i)
		if gv != wv || gtot != wtot {
			t.Fatalf("program %d accuracy %d/%d, want %d/%d", i, gv, gtot, wv, wtot)
		}
	}
}

func sameRows(a, b *exec.Table) bool {
	if a == nil || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if math.Float64bits(a.Rows[i][j]) != math.Float64bits(b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// TestBlockPathMatchesScalarOracle drives the block loop and the scalar
// oracle over the same record stream, cut into partial blocks of random
// length, and requires bit-identical stores and tables. Three drives:
// random per-lane target masks (any subset of programs and the select
// bit, including none) into one shard; the all-targets single-shard
// path; and the inline routed path of a 3-shard datapath against
// per-record routing. Each runs with compiled WHEREs and with the
// interpreter fallbacks.
func TestBlockPathMatchesScalarOracle(t *testing.T) {
	recs := testTrace(t)
	if len(recs) > 30000 {
		recs = recs[:30000]
	}
	for name, src := range oracleQueries() {
		for _, interp := range []bool{false, true} {
			plan := compilePlan(t, src)
			tname := name
			if interp {
				tname += "/interp"
				stripCodes(plan)
			}
			t.Run(tname, func(t *testing.T) {
				for _, shards := range []int{1, 3} {
					cfg := Config{Geometry: kvstore.SetAssociative(1<<9, 4), Shards: shards}
					block, err := New(plan, cfg)
					if err != nil {
						t.Fatal(err)
					}
					oracle, err := New(plan, cfg)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(len(name) + shards)))
					targets := uint64(1)<<uint(len(plan.Programs)+1) - 1
					masks := make([]uint64, len(recs))
					for i := range masks {
						switch rng.Intn(4) {
						case 0:
							masks[i] = targets
						case 1:
							masks[i] = 0
						default:
							masks[i] = rng.Uint64() & targets
						}
					}
					for base := 0; base < len(recs); {
						end := min(base+1+rng.Intn(3*fold.BlockSize), len(recs))
						chunk := recs[base:end]
						switch {
						case shards > 1:
							block.Apply(chunk, nil)
							m := make([]uint64, shards)
							for i := range chunk {
								oracle.router.Route(&chunk[i], m)
								for s, sm := range m {
									if sm != 0 {
										oracle.shards[s].process(oracle, &chunk[i], sm, false)
									}
								}
							}
						case base < len(recs)/2:
							block.shards[0].processBatch(block, chunk, masks[base:end], nil)
							for i := range chunk {
								oracle.shards[0].process(oracle, &chunk[i], masks[base+i], false)
							}
						default:
							block.Apply(chunk, nil)
							for i := range chunk {
								oracle.shards[0].process(oracle, &chunk[i], 0, true)
							}
						}
						base = end
					}
					sameState(t, block, oracle)
				}
			})
		}
	}
}
