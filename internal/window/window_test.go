package window

import (
	"fmt"
	"io"
	"math"
	"testing"

	"perfq/internal/exec"
	"perfq/internal/switchsim"
	"perfq/internal/trace"
)

// fakeRunner records the window schedule it is driven through.
type fakeRunner struct {
	fed      int64
	perClose []int64 // records per closed window
	carries  []bool
	finished int
}

func (f *fakeRunner) Feed(recs []trace.Record) { f.fed += int64(len(recs)) }

func (f *fakeRunner) CloseWindow(carry bool) (map[string]*exec.Table, []switchsim.Acc, error) {
	f.perClose = append(f.perClose, f.fed)
	f.carries = append(f.carries, carry)
	f.fed = 0
	return map[string]*exec.Table{}, []switchsim.Acc{{Valid: 1, Total: 1}}, nil
}

func (f *fakeRunner) EndFeed() { f.finished++ }

// recsAt builds one record per Tin value.
func recsAt(tins ...int64) []trace.Record {
	out := make([]trace.Record, len(tins))
	for i, tin := range tins {
		out[i] = trace.Record{Tin: tin, Tout: tin + 1, PktUniq: uint64(i)}
	}
	return out
}

// hiddenSource wraps a slice so Stream takes the generic (buffered) path
// instead of the SliceSource fast path.
type hiddenSource struct{ s trace.SliceSource }

func (h *hiddenSource) Next(rec *trace.Record) error { return h.s.Next(rec) }

func TestSpecValidate(t *testing.T) {
	for _, bad := range []Spec{{}, {Count: 10, IntervalNs: 10}, {Count: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("spec %+v validated", bad)
		}
	}
	for _, good := range []Spec{{Count: 1}, {IntervalNs: 5, Carry: true}} {
		if err := good.Validate(); err != nil {
			t.Errorf("spec %+v rejected: %v", good, err)
		}
	}
}

func TestSlicesByCount(t *testing.T) {
	recs := recsAt(make([]int64, 25)...)
	got := Spec{Count: 10}.Slices(recs)
	want := [][2]int{{0, 10}, {10, 20}, {20, 25}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Slices = %v, want %v", got, want)
	}
	// An exact multiple produces no trailing empty window.
	got = Spec{Count: 5}.Slices(recs[:10])
	want = [][2]int{{0, 5}, {5, 10}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Slices = %v, want %v", got, want)
	}
}

func TestSlicesByTimeWithGap(t *testing.T) {
	// Anchored at Tin 100. Windows of 10ns: [100,110) {100,105},
	// [110,120) {112}, [120,130) empty, [130,140) {135}.
	recs := recsAt(100, 105, 112, 135)
	got := Spec{IntervalNs: 10}.Slices(recs)
	want := [][2]int{{0, 2}, {2, 3}, {3, 3}, {3, 4}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Slices = %v, want %v", got, want)
	}
}

func TestSlicesLateRecordClamped(t *testing.T) {
	// Tin 14 arrives after window 2 opened; it is clamped into it.
	recs := recsAt(0, 25, 14)
	got := Spec{IntervalNs: 10}.Slices(recs)
	want := [][2]int{{0, 1}, {1, 1}, {1, 3}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Slices = %v, want %v", got, want)
	}
}

// TestStreamMatchesSlices drives the same trace through the slice fast
// path and the generic buffered path; both must deliver the Slices
// schedule, with Finisher called and window metadata filled.
func TestStreamMatchesSlices(t *testing.T) {
	tins := make([]int64, 0, 3000)
	for i := 0; i < 3000; i++ {
		tins = append(tins, int64(i)*7)
	}
	recs := recsAt(tins...)
	for _, spec := range []Spec{{Count: 700}, {IntervalNs: 1000}, {Count: 256, Carry: true}} {
		bounds := spec.Slices(recs)
		for _, viaSlice := range []bool{true, false} {
			var src trace.Source = &trace.SliceSource{Records: recs}
			if !viaSlice {
				src = &hiddenSource{s: trace.SliceSource{Records: recs}}
			}
			r := &fakeRunner{}
			var results []*Result
			n, err := Stream(src, spec, r, func(res *Result) error {
				results = append(results, res)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if int(n) != len(bounds) {
				t.Fatalf("spec %v slice=%v: %d windows, want %d", spec, viaSlice, n, len(bounds))
			}
			for i, b := range bounds {
				if got, want := r.perClose[i], int64(b[1]-b[0]); got != want {
					t.Fatalf("spec %v slice=%v window %d: %d records, want %d", spec, viaSlice, i, got, want)
				}
				if results[i].Index != int64(i) || results[i].Records != int64(b[1]-b[0]) {
					t.Fatalf("result %d metadata %+v", i, results[i])
				}
				if r.carries[i] != spec.Carry {
					t.Fatalf("carry flag %v, want %v", r.carries[i], spec.Carry)
				}
				if spec.IntervalNs > 0 && results[i].EndNs-results[i].StartNs != spec.IntervalNs {
					t.Fatalf("window %d bounds %d..%d", i, results[i].StartNs, results[i].EndNs)
				}
			}
			if r.finished != 1 {
				t.Fatalf("EndFeed called %d times", r.finished)
			}
		}
	}
}

func TestStreamEmptySource(t *testing.T) {
	r := &fakeRunner{}
	n, err := Stream(&trace.SliceSource{}, Spec{Count: 10}, r, func(*Result) error {
		t.Fatal("emit on empty source")
		return nil
	})
	if err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if r.finished != 1 {
		t.Fatal("EndFeed not called")
	}
}

func TestStreamEmitErrorAborts(t *testing.T) {
	r := &fakeRunner{}
	wantErr := io.ErrUnexpectedEOF
	n, err := Stream(&trace.SliceSource{Records: recsAt(make([]int64, 100)...)},
		Spec{Count: 10}, r, func(res *Result) error {
			if res.Index == 2 {
				return wantErr
			}
			return nil
		})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if n != 3 {
		t.Fatalf("closed %d windows before abort, want 3", n)
	}
}

func TestRing(t *testing.T) {
	r := NewRing[*Result](3)
	if _, ok := r.Last(); ok {
		t.Fatal("empty ring has a last element")
	}
	for i := 0; i < 5; i++ {
		r.Push(&Result{Index: int64(i)})
	}
	if r.Len() != 3 || r.Dropped() != 2 || r.Pushed() != 5 {
		t.Fatalf("len=%d dropped=%d pushed=%d", r.Len(), r.Dropped(), r.Pushed())
	}
	var idx []int64
	for _, res := range r.Results() {
		idx = append(idx, res.Index)
	}
	if fmt.Sprint(idx) != "[2 3 4]" {
		t.Fatalf("retained %v, want [2 3 4]", idx)
	}
	if last, ok := r.Last(); !ok || last.Index != 4 {
		t.Fatalf("Last = %v,%v", last, ok)
	}
	if NewRing[int](0).Cap() != DefaultKeep {
		t.Fatal("default capacity not applied")
	}
}

// TestStreamEmptyCarryWindowsReusePrev: under carry-over, an empty
// window (a virtual-time gap) must not re-run the runner's close —
// state cannot have changed — and its emitted result reuses the
// previous tables with zeroed window-scoped accuracy.
func TestStreamEmptyCarryWindowsReusePrev(t *testing.T) {
	// Windows of 10ns anchored at 0: w0 {0,5}, w1..w3 empty, w4 {45}.
	recs := recsAt(0, 5, 45)
	r := &fakeRunner{}
	var results []*Result
	n, err := Stream(&trace.SliceSource{Records: recs}, Spec{IntervalNs: 10, Carry: true}, r,
		func(res *Result) error {
			results = append(results, res)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("closed %d windows, want 5", n)
	}
	// Only the two non-empty windows actually closed on the runner.
	if len(r.perClose) != 2 {
		t.Fatalf("runner closed %d times, want 2 (empty carry windows reuse)", len(r.perClose))
	}
	for i, res := range results {
		if res.Index != int64(i) {
			t.Fatalf("result %d has index %d", i, res.Index)
		}
	}
	for _, i := range []int{1, 2, 3} {
		if results[i].Records != 0 {
			t.Fatalf("empty window %d has %d records", i, results[i].Records)
		}
		if len(results[i].Acc) != 1 || results[i].Acc[0].WinTotal != 0 || results[i].Acc[0].WinValid != 0 {
			t.Fatalf("empty window %d window-scoped acc not zeroed: %+v", i, results[i].Acc)
		}
		// Cumulative tables and accuracy carry through unchanged.
		if results[i].Acc[0].Valid != results[0].Acc[0].Valid {
			t.Fatalf("empty window %d cumulative acc diverged", i)
		}
	}
}

// TestStreamChunkEdges: count schedules split each chunk the source is
// read in by arithmetic, so windows that end exactly on, just before or
// just after a chunk edge — or never — must still deliver the Slices
// schedule, from a slice (one chunk) or a hidden source (feedBatch-record
// chunks).
func TestStreamChunkEdges(t *testing.T) {
	recs := recsAt(make([]int64, 3*feedBatch+7)...)
	for _, count := range []int64{1, feedBatch - 1, feedBatch, feedBatch + 1, math.MaxInt64} {
		spec := Spec{Count: count}
		bounds := spec.Slices(recs)
		// Slices runs the same cutter; pin it to plain arithmetic first.
		for i, b := range bounds {
			lo, hi := int64(i)*count, min(int64(i+1)*count, int64(len(recs)))
			if int64(b[0]) != lo || int64(b[1]) != hi || len(bounds) != int((int64(len(recs))-1)/count+1) {
				t.Fatalf("count %d: Slices = %v…, window %d is %v", count, bounds[:min(3, len(bounds))], i, b)
			}
		}
		for _, viaSlice := range []bool{true, false} {
			var src trace.Source = &trace.SliceSource{Records: recs}
			if !viaSlice {
				src = &hiddenSource{s: trace.SliceSource{Records: recs}}
			}
			r := &fakeRunner{}
			n, err := Stream(src, spec, r, nil)
			if err != nil {
				t.Fatal(err)
			}
			if int(n) != len(bounds) || len(r.perClose) != len(bounds) {
				t.Fatalf("count %d slice=%v: %d windows (%d closes), want %d",
					count, viaSlice, n, len(r.perClose), len(bounds))
			}
			for i, b := range bounds {
				if got, want := r.perClose[i], int64(b[1]-b[0]); got != want {
					t.Fatalf("count %d slice=%v window %d: %d records, want %d", count, viaSlice, i, got, want)
				}
			}
		}
	}
}

// countingSource counts the records read from it.
type countingSource struct {
	hiddenSource
	reads int
}

func (c *countingSource) Next(rec *trace.Record) error {
	c.reads++
	return c.hiddenSource.Next(rec)
}

// TestStreamEmitErrorStopsReading: a window closing in the middle of a
// chunk fails its emit; the rest of that chunk is not fed and no further
// chunk is read.
func TestStreamEmitErrorStopsReading(t *testing.T) {
	src := &countingSource{hiddenSource: hiddenSource{s: trace.SliceSource{Records: recsAt(make([]int64, 4*feedBatch)...)}}}
	r := &fakeRunner{}
	wantErr := io.ErrUnexpectedEOF
	n, err := Stream(src, Spec{Count: 100}, r, func(*Result) error { return wantErr })
	if err != wantErr || n != 1 {
		t.Fatalf("n=%d err=%v, want 1 window and %v", n, err, wantErr)
	}
	if src.reads != feedBatch {
		t.Fatalf("read %d records after the emit error, want only the first chunk's %d", src.reads, feedBatch)
	}
	if fed := r.perClose[0] + r.fed; fed != 100 {
		t.Fatalf("fed %d records, want only the closed window's 100", fed)
	}
}

// startRunner is a fakeRunner with a Start hook that records whether
// the source had been read from when it ran.
type startRunner struct {
	fakeRunner
	src        *countingSource
	starts     int
	readsAtRun int
}

func (s *startRunner) Start() {
	s.starts++
	s.readsAtRun = s.src.reads
}

// TestStreamStartsBeforeFirstRead: Start runs exactly once, before the
// source is first read.
func TestStreamStartsBeforeFirstRead(t *testing.T) {
	src := &countingSource{hiddenSource: hiddenSource{s: trace.SliceSource{Records: recsAt(make([]int64, 1000)...)}}}
	r := &startRunner{src: src}
	if _, err := Stream(src, Spec{Count: 300}, r, nil); err != nil {
		t.Fatal(err)
	}
	if r.starts != 1 || r.readsAtRun != 0 {
		t.Fatalf("Start ran %d times, after %d reads; want once, before the first", r.starts, r.readsAtRun)
	}
	if r.finished != 1 {
		t.Fatalf("EndFeed called %d times", r.finished)
	}
}
