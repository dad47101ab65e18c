package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	speculate "repro"
	"repro/internal/artifact"
	"repro/internal/harness"
	"repro/internal/jobqueue"
)

// cellTimer is a jobqueue executor that times every grid cell the harness
// schedules on it. It is the benchmark's window into per-cell latency
// without changing the harness.
type cellTimer struct {
	tr    *tracer
	mu    sync.Mutex
	cells []float64 // ms, since the last take
}

func (x *cellTimer) Execute(ctx context.Context, j jobqueue.Job) error {
	start := time.Now()
	err := j.Fn(ctx)
	if strings.HasPrefix(j.ID, "cell/") {
		d := x.tr.record("harness", "cell", start, 0)
		x.mu.Lock()
		x.cells = append(x.cells, ms(d))
		x.mu.Unlock()
	}
	return err
}

// take returns and clears the cell times recorded so far.
func (x *cellTimer) take() []float64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := x.cells
	x.cells = nil
	return out
}

// gridInstrs counts the instructions a grid simulated, baselines included.
func gridInstrs(t *harness.SpeedupTable) int64 {
	var n int64
	for i := range t.Base {
		n += t.Base[i].Retired
	}
	for _, row := range t.Results {
		for _, r := range row {
			n += r.Retired
		}
	}
	return n
}

// fig9Out is what the fig9-local phases measured.
type fig9Out struct {
	first               *harness.SpeedupTable
	cache               *artifact.Cache // the warm cache, for the layer ladder
	setup, gridNs       []float64
	cold, warm, restart []float64
	warmWall            time.Duration
}

// fig9Phases runs fig9-local: what a paper reproducer pays for
// `experiments -fig 9`, then for re-running it with -cache-dir. The host's
// speed drifts over seconds, so the run repeats one round of every phase
// until the budget is spent, and every metric samples the whole run:
//
//   - setup: cold parallel preparation of the twelve synthetic workloads
//     (assemble, emulate, check, analyze, deps);
//   - cold: the Figure-9 grid (84 cells) on the prepared benches with no
//     cache; each cell is a cold job;
//   - warm: 50 grids over a filled artifact cache, cells served from
//     memory;
//   - restart: 10 grids, each over a fresh cache on the same directory,
//     cells served from disk.
func fig9Phases(e *env, seconds time.Duration) (*fig9Out, error) {
	out := &fig9Out{}
	timer := &cellTimer{}
	pool := jobqueue.New(jobqueue.Config{QueueDepth: 128, Executor: timer})
	defer pool.Close()

	grid := func(o harness.Options) (*harness.SpeedupTable, time.Duration, error) {
		o.Pool = pool
		timer.tr = e.tr
		start := time.Now()
		t, err := harness.Figure9Opts(o)
		d := e.tr.record("e2e", "grid", start, 0)
		if e.op(err) && out.first != nil {
			e.check(sameTable(out.first, t), "grid table differs from the run's first table")
		}
		return t, d, err
	}

	// Fill the artifact cache the warm and restart grids read (untimed).
	dir, err := e.tempDir("fig9-cache-")
	if err != nil {
		return nil, err
	}
	if out.cache, err = artifact.New(artifact.Options{Dir: dir}); err != nil {
		return nil, err
	}
	if out.first, _, err = grid(harness.Options{Cache: out.cache}); err != nil {
		return nil, err
	}
	timer.take()
	cells := int64(len(out.first.Benches) * (len(out.first.Policies) + 1))

	deadline := time.Now().Add(seconds)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		speculate.ClearBenchCache()
		runtime.GC()
		start := time.Now()
		_, err := harness.BenchesNamed(nil)
		d := e.tr.record("e2e", "prepare", start, 0)
		if !e.op(err) {
			return nil, err
		}
		out.setup = append(out.setup, d.Seconds())

		t, d, err := grid(harness.Options{})
		if err != nil {
			return nil, err
		}
		out.gridNs = append(out.gridNs, float64(d)/float64(gridInstrs(t)))
		out.cold = append(out.cold, timer.take()...)

		for i := 0; i < 50; i++ {
			_, d, err := grid(harness.Options{Cache: out.cache})
			if err != nil {
				return nil, err
			}
			out.warmWall += d
		}
		out.warm = append(out.warm, timer.take()...)

		for i := 0; i < 10; i++ {
			c, err := artifact.New(artifact.Options{Dir: dir})
			if !e.op(err) {
				return nil, err
			}
			if _, _, err := grid(harness.Options{Cache: c}); err != nil {
				return nil, err
			}
			e.check(c.Stats().DiskHits == cells, "restart grid served %d of %d cells from disk", c.Stats().DiskHits, cells)
		}
		out.restart = append(out.restart, timer.take()...)
	}

	if e.tr != nil {
		err := e.overhead(20, func() (time.Duration, error) {
			_, d, err := grid(harness.Options{Cache: out.cache})
			return d, err
		})
		timer.take()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runFig9(e *env) error {
	out, err := fig9Phases(e, e.seconds)
	if err != nil {
		return err
	}
	return fig9Metrics(e, out)
}

func fig9Metrics(e *env, out *fig9Out) error {
	e.set("setup_s", "s", median(out.setup))
	e.set("ns_per_sim_instr", "ns", median(out.gridNs))
	e.set("postdoms_speedup_pct", "%", checkPostdoms(e, "synthetic", out.first))
	e.set("peak_rss_mb", "MB", selfPeakRSSMB())
	return jobMetrics(e, out.cold, out.warm, out.restart, float64(len(out.warm))/out.warmWall.Seconds())
}

// jobMetrics sets the job-latency metrics every workload reports.
func jobMetrics(e *env, cold, warm, restart []float64, warmPerS float64) error {
	e.set("cold_job_p50_ms", "ms", median(cold))
	e.set("warm_job_p50_ms", "ms", median(warm))
	e.set("restart_job_p50_ms", "ms", median(restart))
	e.set("warm_jobs_per_s", "1/s", warmPerS)
	p80, err1 := percentile(cold, 80)
	p90, err2 := percentile(warm, 90)
	e.set("cold_job_p80_ms", "ms", p80)
	e.set("warm_job_p90_ms", "ms", p90)
	if err := errors.Join(err1, err2); err != nil {
		return fmt.Errorf("percentiles: %w", err)
	}
	return nil
}
