package exec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"perfq/internal/compiler"
	"perfq/internal/fold"
)

// oracleRowKey is the string key encoding the hash join used before it
// probed through a reused buffer: one allocation for the bytes and one for
// the string, per row.
func oracleRowKey(vals []float64) string {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		u := uint64(int64(v))
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(u >> (8 * j))
		}
	}
	return string(b)
}

// oracleJoin is runJoin over oracleRowKey with per-row output
// allocation — the reference the allocation-free join must match.
func oracleJoin(st *compiler.Stage, left, right *Table) *Table {
	k := st.OnCols
	index := make(map[string][]float64, len(right.Rows))
	for _, row := range right.Rows {
		index[oracleRowKey(row[:k])] = row
	}
	t := &Table{Schema: st.Schema}
	for _, lrow := range left.Rows {
		rrow, ok := index[oracleRowKey(lrow[:k])]
		if !ok {
			continue
		}
		combined := append(append([]float64(nil), lrow...), rrow...)
		in := fold.Input{Cols: combined}
		if !predCode(st.JoinWhereCode, st.JoinWhere, &in) {
			continue
		}
		out := append([]float64(nil), lrow[:k]...)
		for i, c := range st.JoinCols {
			var code *fold.Code
			if st.JoinColCodes != nil {
				code = st.JoinColCodes[i]
			}
			out = append(out, exprCode(code, c, &in))
		}
		t.Rows = append(t.Rows, out)
	}
	t.Sort()
	return t
}

func joinStage(t *testing.T, p *compiler.Plan, name string) *compiler.Stage {
	t.Helper()
	for _, st := range p.Stages {
		if st.Name == name && st.Kind == compiler.KindJoin {
			return st
		}
	}
	t.Fatalf("no join stage %s", name)
	return nil
}

// sameRows compares tables bit for bit (NaN payloads and -0 included).
func sameRows(a, b *Table) bool {
	if len(a.Rows) != len(b.Rows) {
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

// TestJoinMatchesOracleEncoding drives the join with key values whose
// int64 truncation is lossy or implementation-defined — negatives,
// fractions that collide after truncation, NaN, ±Inf, out-of-range
// magnitudes, -0 — on one- and five-column keys and with empty sides, and
// requires the exact rows of the per-row-allocating reference.
func TestJoinMatchesOracleEncoding(t *testing.T) {
	odd := []float64{0, math.Copysign(0, -1), 1, -1, 1.5, 1.7, -1.5, -2.9,
		math.NaN(), math.Inf(1), math.Inf(-1), 1e19, -1e19, 9.2e18, 42, 1 << 40}
	for _, q := range []struct{ src, join string }{
		{`R1 = SELECT COUNT GROUPBY srcip
R2 = SELECT COUNT GROUPBY srcip WHERE tout == infinity
R3 = SELECT R2.count / R1.count AS rate FROM R1 JOIN R2 ON srcip`, "R3"},
		{`R1 = SELECT COUNT GROUPBY 5tuple
R2 = SELECT COUNT GROUPBY 5tuple WHERE tout == infinity
R3 = SELECT R2.count / R1.count AS rate, R2.count AS drops FROM R1 JOIN R2 ON 5tuple`, "R3"},
	} {
		p := plan(t, q.src)
		st := joinStage(t, p, q.join)
		k := st.OnCols
		rng := rand.New(rand.NewSource(int64(k)))
		mkRows := func(n int) [][]float64 {
			rows := make([][]float64, n)
			for i := range rows {
				row := make([]float64, k+1)
				for j := 0; j < k; j++ {
					row[j] = odd[rng.Intn(len(odd))]
				}
				row[k] = float64(rng.Intn(9)) // count, zeros included
				rows[i] = row
			}
			return rows
		}
		for _, sz := range [][2]int{{0, 0}, {0, 20}, {20, 0}, {1, 1}, {50, 30}, {400, 400}} {
			left := &Table{Schema: []string{"k", "count"}, Rows: mkRows(sz[0])}
			right := &Table{Schema: []string{"k", "count"}, Rows: mkRows(sz[1])}
			e := New(p)
			e.SetTable(st.Left.Name, left)
			e.SetTable(st.Right.Name, right)
			got, err := e.runJoin(st)
			if err != nil {
				t.Fatal(err)
			}
			want := oracleJoin(st, left, right)
			if !sameRows(got, want) {
				t.Fatalf("k=%d sizes %v: join rows\n got %v\nwant %v", k, sz, got.Rows, want.Rows)
			}
			if !reflect.DeepEqual(got.Schema, want.Schema) {
				t.Fatalf("schema %v, want %v", got.Schema, want.Schema)
			}
		}
	}
}

// TestJoinAllocsIndependentOfProbeRows bounds the join's allocations by a
// constant: the count for a 10000-row probe side equals the count for a
// 100-row one (build side fixed), so no allocation is paid per row.
func TestJoinAllocsIndependentOfProbeRows(t *testing.T) {
	p := plan(t, `R1 = SELECT COUNT GROUPBY srcip
R2 = SELECT COUNT GROUPBY srcip WHERE tout == infinity
R3 = SELECT R2.count / R1.count AS rate FROM R1 JOIN R2 ON srcip`)
	st := joinStage(t, p, "R3")
	allocs := func(probe int) float64 {
		left := &Table{}
		for i := 0; i < probe; i++ {
			left.Rows = append(left.Rows, []float64{float64(i), 10})
		}
		right := &Table{}
		for i := 0; i < 64; i++ {
			right.Rows = append(right.Rows, []float64{float64(3 * i), 1})
		}
		e := New(p)
		e.SetTable("R1", left)
		e.SetTable("R2", right)
		return testing.AllocsPerRun(20, func() {
			if _, err := e.runJoin(st); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(10000)
	if large > small {
		t.Fatalf("join allocs grow with probe rows: %v at 100 rows, %v at 10000", small, large)
	}
	if small > 16 {
		t.Fatalf("join allocs = %v, want a small constant", small)
	}
}
