package main

import (
	"fmt"
	"math"

	"perfq"
	"perfq/internal/fold"
)

// envelopeTol is the per-cell relative tolerance of an envelope table,
// the bound the shard, window and fabric equivalence suites hold decay
// folds to: the §3.2 merge reconstruction of a fractional coefficient
// rounds at the last bit per cache epoch.
const envelopeTol = 1e-12

// classify marks each plan stage exact (bit-identical to ground truth)
// or envelope (within envelopeTol), as the equivalence suites do: a
// linear fold whose coefficient matrix holds only integer constants
// merges exactly in float64, so every stage of such a plan is exact; a
// fractional or packet-dependent coefficient (EWMA's 1-α) makes every
// stage downstream of the merge an envelope table.
func classify(q *perfq.Query) map[string]bool {
	exact := !roundingProne(q)
	out := map[string]bool{}
	for _, st := range q.Plan().Stages {
		out[st.Name] = exact
	}
	return out
}

func roundingProne(q *perfq.Query) bool {
	for _, sp := range q.Plan().Programs {
		if sp.Fold.Merge != fold.MergeLinear {
			return true
		}
		ls := sp.Fold.Linear
		if ls == nil {
			continue
		}
		for _, row := range ls.A {
			for _, e := range row {
				switch c := e.(type) {
				case nil:
				case fold.Const:
					if float64(c) != math.Trunc(float64(c)) {
						return true
					}
				default:
					return true
				}
			}
		}
	}
	return false
}

// checkWindow holds one window's tables to its reference: every stage
// present, and each table exact or within envelopeTol per exact.
func checkWindow(got, want map[string]*perfq.Table, exact map[string]bool) error {
	for name, w := range want {
		tol := envelopeTol
		if exact[name] {
			tol = 0
		}
		if err := compareTable(got[name], w, tol); err != nil {
			return fmt.Errorf("table %s: %w", name, err)
		}
	}
	return nil
}

// compareTable requires equal schemas and row counts and, cell by cell
// over the sorted rows, bit-identical values or a relative difference
// within tol (0 = bit-identical).
func compareTable(got, want *perfq.Table, tol float64) error {
	if got == nil || want == nil {
		return fmt.Errorf("missing table (got %v, want %v)", got != nil, want != nil)
	}
	if len(got.Schema) != len(want.Schema) {
		return fmt.Errorf("schema %v, want %v", got.Schema, want.Schema)
	}
	for i := range want.Schema {
		if got.Schema[i] != want.Schema[i] {
			return fmt.Errorf("schema %v, want %v", got.Schema, want.Schema)
		}
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), len(want.Rows))
	}
	for i, wrow := range want.Rows {
		grow := got.Rows[i]
		if len(grow) != len(wrow) {
			return fmt.Errorf("row %d has %d cells, want %d", i, len(grow), len(wrow))
		}
		for j, w := range wrow {
			g := grow[j]
			if math.Float64bits(g) == math.Float64bits(w) {
				continue
			}
			if tol > 0 && math.Abs(g-w) <= tol*math.Max(1, math.Abs(w)) {
				continue
			}
			return fmt.Errorf("row %d column %s: %v, want %v (tolerance %g)", i, want.Schema[j], g, w, tol)
		}
	}
	return nil
}
