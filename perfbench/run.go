package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"syscall"
	"time"

	"perfq"
	"perfq/internal/trace"
)

// replay is the trace.Source of one timed run. It decodes the capture's
// pqt bytes with trace.NewReader and reads the clock only where a
// measurement needs it: before the first record (the end of set-up and
// the start of the run), at the last record of each count window, and at
// the end of the stream. Single records are never timed.
type replay struct {
	r       *trace.Reader
	every   int64 // window size in records; 0 = one window
	left    int64 // records until the open window's last one
	started bool

	first      time.Time
	cpu0       time.Duration
	alloc0     uint64
	gc0, busy0 float64
	lastAt     []time.Time // when each full window's last record was handed over
	eof        time.Time
}

func newReplay(pqt []byte, every int64) (*replay, error) {
	r, err := trace.NewReader(bytes.NewReader(pqt))
	if err != nil {
		return nil, err
	}
	left := every
	if every <= 0 {
		left = -1 // never reaches zero
	}
	return &replay{r: r, every: every, left: left}, nil
}

func (s *replay) Next(rec *trace.Record) error {
	if !s.started {
		s.started = true
		s.cpu0 = cpuTime()
		s.alloc0 = allocBytes()
		s.gc0, s.busy0 = gcCPU()
		s.first = time.Now()
	}
	if err := s.r.Next(rec); err != nil {
		if err == io.EOF && s.eof.IsZero() {
			s.eof = time.Now()
		}
		return err
	}
	s.left--
	if s.left == 0 {
		s.lastAt = append(s.lastAt, time.Now())
		s.left = s.every
	}
	return nil
}

// lastRecordAt is when window k's last record was handed over; the final
// partial window ends with the stream.
func (s *replay) lastRecordAt(k int64) time.Time {
	if k < int64(len(s.lastAt)) {
		return s.lastAt[k]
	}
	return s.eof
}

// sample is the measurement of one run.
type sample struct {
	records int
	setup   time.Duration // compile + construction + pool start/dial, to the first record
	wall    time.Duration // first record decoded to last table formatted
	emits   []time.Duration
	cpu     time.Duration // process user + system CPU over wall
	alloc   uint64        // bytes allocated over wall
	heap    uint64        // heap the run holds at its end, before results are released

	checked, failed  int // windows held to the reference, and those that failed
	firstErr         error
	offered, dropped uint64 // pool evictions offered and dropped, after Sync
	tables           []map[string]*perfq.Table
	gcCPU, busyCPU   float64 // runtime GC and busy CPU seconds over wall
}

// runFacade is one timed run through the public facade, pqt bytes in to
// formatted tables out. Windows are held to the reference as they are
// emitted, with the check's time, CPU and allocation taken out of the
// run's figures; a single-window run is checked after it ends. With keep
// set the run's tables are retained in the sample.
func runFacade(w *workload, in *input, keep bool) (*sample, error) {
	src, err := newReplay(in.pqt, w.window)
	if err != nil {
		return nil, err
	}
	base := freshHeap()
	t0 := time.Now()
	q, err := perfq.Compile(w.query)
	if err != nil {
		return nil, err
	}
	tp, err := w.topology()
	if err != nil {
		return nil, err
	}
	opts := w.options(tp)
	var pool *perfq.BackingPool
	if w.pool > 0 {
		cluster, err := q.ServeBackingStores(w.pool)
		if err != nil {
			return nil, fmt.Errorf("start backing stores: %w", err)
		}
		defer cluster.Close()
		pool, err = q.DialBackingPool(cluster.Addrs(), perfq.BackingPoolConfig{QueueDepth: poolQueueDepth})
		if err != nil {
			return nil, fmt.Errorf("dial backing pool: %w", err)
		}
		defer pool.Close()
		opts = append(opts, perfq.WithBackingPool(pool))
	}

	s := &sample{records: in.records}
	names := q.Results()
	var (
		res               *perfq.Results
		closed            int
		exclWall, exclCPU time.Duration
		exclAlloc         uint64
	)
	if w.window > 0 {
		res, err = q.Stream(src, func(wr *perfq.WindowResult) error {
			s.emits = append(s.emits, time.Since(src.lastRecordAt(wr.Index)))
			for _, name := range names {
				wr.Table(name).Format(io.Discard, 0)
			}
			c0, cpu0, a0 := time.Now(), cpuTime(), allocBytes()
			got := stageTables(q, wr.Table)
			s.hold(int(wr.Index), got, in)
			if keep {
				s.tables = append(s.tables, got)
			}
			closed++
			exclAlloc += allocBytes() - a0
			exclCPU += cpuTime() - cpu0
			exclWall += time.Since(c0)
			return nil
		}, opts...)
		if err != nil {
			return nil, err
		}
	} else {
		res, err = q.Run(src, opts...)
		if err != nil {
			return nil, err
		}
		s.emits = append(s.emits, time.Since(src.eof))
	}
	if pool != nil {
		if err := pool.Sync(); err != nil {
			return nil, fmt.Errorf("backing pool sync: %w", err)
		}
	}
	if w.window == 0 {
		for _, name := range names {
			res.Table(name).Format(io.Discard, 0)
		}
	}
	end := time.Now()
	s.cpu = cpuTime() - src.cpu0 - exclCPU
	s.alloc = allocBytes() - src.alloc0 - exclAlloc
	gc, busy := gcCPU()
	s.gcCPU, s.busyCPU = gc-src.gc0, busy-src.busy0
	s.setup = src.first.Sub(t0)
	s.wall = end.Sub(src.first) - exclWall
	s.heap = heapInuse() - base

	if w.window == 0 {
		got := stageTables(q, res.Table)
		s.hold(0, got, in)
		if keep {
			s.tables = append(s.tables, got)
		}
		closed = 1
	}
	s.holdClosed(closed, in)
	if pool != nil {
		for prog := 0; prog < pool.Programs(); prog++ {
			for _, b := range pool.StatsFor(prog) {
				s.offered += b.Offered
			}
		}
		s.dropped = pool.DroppedEvictions()
	}
	return s, nil
}

// hold checks window k of a run against the input's reference.
func (s *sample) hold(k int, got map[string]*perfq.Table, in *input) {
	s.checked++
	var err error
	if k < len(in.ref) {
		err = checkWindow(got, in.ref[k], in.exact)
	} else {
		err = fmt.Errorf("not in the reference")
	}
	if err != nil {
		s.noteFailure(fmt.Errorf("seed %d window %d: %w", in.seed, k, err))
	}
}

// holdClosed fails every reference window beyond the closed ones.
func (s *sample) holdClosed(closed int, in *input) {
	for k := closed; k < len(in.ref); k++ {
		s.checked++
		s.noteFailure(fmt.Errorf("seed %d window %d: missing", in.seed, k))
	}
}

// check holds every retained window to the reference.
func (s *sample) check(in *input) {
	for k, got := range s.tables {
		s.hold(k, got, in)
	}
	s.holdClosed(len(s.tables), in)
}

func (s *sample) noteFailure(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// freshHeap collects and returns every free page to the OS, so each run
// starts from the heap a fresh process would have, and returns the heap
// in use.
func freshHeap() uint64 {
	debug.FreeOSMemory()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// heapInuse is the heap in use after a collection, so garbage left by
// earlier work does not count.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap allocation (MemStats.TotalAlloc),
// read through runtime/metrics so it costs no stop-the-world.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
