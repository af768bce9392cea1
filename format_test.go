package perfq

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
)

// formatOracle is Table.Format as one fmt call per cell: the
// definition of its output that Format must reproduce byte for byte.
func formatOracle(t *Table, w io.Writer, maxRows int) {
	for _, c := range t.Schema {
		fmt.Fprintf(w, "%-16s", c)
	}
	fmt.Fprintln(w)
	n := len(t.Rows)
	if maxRows > 0 && n > maxRows {
		n = maxRows
	}
	for i := 0; i < n; i++ {
		for j, v := range t.Rows[i] {
			if isAddrColumn(t.Schema[j]) {
				u := uint32(int64(v))
				fmt.Fprintf(w, "%-16s", fmt.Sprintf("%d.%d.%d.%d", u>>24, u>>16&0xff, u>>8&0xff, u&0xff))
			} else if v == float64(int64(v)) {
				fmt.Fprintf(w, "%-16d", int64(v))
			} else {
				fmt.Fprintf(w, "%-16.4f", v)
			}
		}
		fmt.Fprintln(w)
	}
	if n < len(t.Rows) {
		fmt.Fprintf(w, "… (%d more rows)\n", len(t.Rows)-n)
	}
}

// formatEdgeValues are the cells most likely to part the two formatters:
// non-finite values, signed zero, integers at and beyond int64's range,
// rounding boundaries of the four-decimal form, and widths around 16.
var formatEdgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -0.5, 0.00005, -0.00004, 0.99995, 1.23456789,
	math.NaN(), math.Inf(1), math.Inf(-1),
	1 << 53, 1<<53 + 2, 1 << 62, 1 << 63, -(1 << 63), 1 << 64, -(1 << 64), math.MaxInt64, math.MinInt64,
	1e15, 1e16, 123456789012345.6, -123456789012.5, 1e300, -1e300,
	math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	3232235777, 4294967295, 4294967296, -3232235777, 255.75,
}

// formatTable builds a table whose every column sees every value in
// vals, address columns included.
func formatTable(schema []string, vals []float64) *Table {
	t := &Table{Schema: schema}
	for i := range vals {
		row := make([]float64, len(schema))
		for j := range row {
			row[j] = vals[(i+j)%len(vals)]
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func checkFormat(t *testing.T, tab *Table, maxRows int) {
	t.Helper()
	var got, want bytes.Buffer
	tab.Format(&got, maxRows)
	formatOracle(tab, &want, maxRows)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-40, 0)
		t.Fatalf("maxRows %d: output differs at byte %d of %d/%d:\n got %q\nwant %q",
			maxRows, i, len(g), len(w), g[lo:min(i+40, len(g))], w[lo:min(i+40, len(w))])
	}
}

// TestTableFormatMatchesFmt pins Format byte-identical to the fmt oracle
// over the edge values, random bit-pattern floats and random integers,
// for column names shorter than, exactly and longer than 16 runes (one
// multi-byte), and with maxRows at 0, below, at and above the row count.
func TestTableFormatMatchesFmt(t *testing.T) {
	schema := []string{"srcip", "dstip", "srcport", "exactly16columns", "a_name_longer_than_16", "", "ünïcödé"}
	rng := rand.New(rand.NewSource(12))
	vals := append([]float64(nil), formatEdgeValues...)
	for i := 0; i < 1500; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()), float64(rng.Int63n(1<<40)-1<<39), rng.NormFloat64()*1e6)
	}
	tab := formatTable(schema, vals)
	n := len(tab.Rows)
	for _, maxRows := range []int{0, -1, 1, n / 2, n - 1, n, n + 1} {
		checkFormat(t, tab, maxRows)
	}
	checkFormat(t, &Table{Schema: schema}, 0)
	checkFormat(t, &Table{Schema: schema}, 3)
}

// TestTableFormatAllocs pins Format's allocations to a count that does
// not grow with the table.
func TestTableFormatAllocs(t *testing.T) {
	small := benchFormatTable(100)
	large := benchFormatTable(20000)
	a := testing.AllocsPerRun(5, func() { small.Format(io.Discard, 0) })
	b := testing.AllocsPerRun(5, func() { large.Format(io.Discard, 0) })
	if b > a || b > 2 {
		t.Errorf("Format allocates %.0f times for 100 rows, %.0f for 20000; want a constant of at most 2", a, b)
	}
}
