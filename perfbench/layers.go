package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	speculate "repro"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/server"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

// The traced run (-trace 1) runs the workload's own phases with spans
// around every call the benchmark makes into a layer, then a ladder that
// times each layer's public functions on the workload's inputs. A layer the
// workload's own path does not reach (the service on fig9-local, the
// cluster on both) is measured by a short probe of those phases over this
// workload's inputs, so every traced run reports every per-layer metric.
// README.md maps each one to the end-to-end metric it should move.

// fig9Policies are the Figure-9 columns besides the superscalar baseline.
func fig9Policies() []string {
	var out []string
	for _, p := range core.IndividualPolicies() {
		out = append(out, p.Name)
	}
	return out
}

// pairCells is each named workload under the superscalar and postdoms.
func pairCells(names []string) []cellKey {
	var out []cellKey
	for _, b := range names {
		out = append(out, cellKey{bench: b, policy: "superscalar"}, cellKey{bench: b, policy: "postdoms"})
	}
	return out
}

const probeSeconds = 4 * time.Second

func tracedFig9(e *env) error {
	out, err := fig9Phases(e, e.seconds)
	if err != nil {
		return err
	}
	if err := fig9Metrics(e, out); err != nil {
		return err
	}
	names := speculate.WorkloadNames()
	var arts [][]byte
	for _, b := range out.first.Benches {
		for _, p := range append([]string{"superscalar"}, fig9Policies()...) {
			data, err := cachedArtifact(out.cache, b, p)
			if !e.op(err) {
				return err
			}
			arts = append(arts, data)
		}
	}
	st := out.cache.Stats()
	e.tr.count("artifact.hits", float64(st.Hits()))
	e.tr.count("artifact.lookups", float64(st.Hits()+st.Misses))
	return tracedTail(e, names, arts, true)
}

func tracedService(e *env) error {
	out, err := servicePhases(e, serviceMixCells(), e.seconds)
	if err != nil {
		return err
	}
	if err := serviceMetrics(e, out); err != nil {
		return err
	}
	countService(e, out, true)
	return tracedTail(e, speculate.AllWorkloadNames(), artifactBytes(out.arts), false)
}

// tracedTail runs the service probe when the workload has no service of
// its own, the cluster probe, and the layer ladder, and replaces the run's
// metrics with the per-layer ones.
func tracedTail(e *env, names []string, arts [][]byte, serviceProbe bool) error {
	if serviceProbe {
		out, err := servicePhases(e, pairCells(names), probeSeconds)
		if err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
		out.arts.verify(e, speculate.Load)
		countService(e, out, false)
	}
	out, err := clusterPhases(e, names, []string{"postdoms"}, probeSeconds)
	if err != nil {
		return fmt.Errorf("cluster probe: %w", err)
	}
	out.obs.arts.verify(e, speculate.Load)
	countCluster(e, out)
	if err := ladder(e, names, fig9Policies(), arts); err != nil {
		return err
	}
	e.metrics = map[string]metric{}
	layerMetrics(e)
	return nil
}

// artifactBytes lists the distinct artifacts a set received.
func artifactBytes(s *artifactSet) [][]byte {
	var out [][]byte
	for _, data := range s.first {
		out = append(out, data)
	}
	return out
}

// cachedArtifact reads the artifact a harness grid stored for one cell.
func cachedArtifact(c *artifact.Cache, bench, policy string) ([]byte, error) {
	b, err := speculate.Load(bench)
	if err != nil {
		return nil, err
	}
	cfg := baseConfig(policy)
	key, err := artifact.NewSimKey(b.Name, b.SourceSHA, b.MaxInstrs, policy, cfg)
	if err != nil {
		return nil, err
	}
	data, ok, err := c.Get(key.Hash())
	if err == nil && !ok {
		err = fmt.Errorf("cache holds no artifact for %s/%s", bench, policy)
	}
	return data, err
}

// countService adds a service run's counters; own marks the workload's own
// path, whose cache traffic gives artifact.hit_ratio.
func countService(e *env, out *svcOut, own bool) {
	all := append(append(append([]jobResult(nil), out.cold...), out.warm...), out.restart...)
	if own {
		hits := 0
		for _, r := range all {
			if r.hit {
				hits++
			}
		}
		e.tr.count("artifact.hits", float64(hits))
		e.tr.count("artifact.lookups", float64(len(all)))
	}
	e.tr.count("jobqueue.rejected", float64(out.rejected))
	e.tr.count("jobqueue.jobs", float64(len(all)))
	e.tr.count("server.requests", float64(out.requests))
	e.tr.count("server.jobs", float64(out.jobs))
}

// countCluster adds a cluster probe's counters.
func countCluster(e *env, out *clusterOut) {
	e.tr.count("cluster.cold_grid_s", out.coldGrid.Seconds())
	e.tr.count("cluster.warm_grid_s", out.warmWall.Seconds()/float64(out.warmGrids))
	e.tr.count("jobqueue.rejected", float64(out.obs.rejected))
	e.tr.count("jobqueue.jobs", float64(len(out.obs.order)))
}

// overhead alternates pairs of one operation with tracing off and on and
// records how much slower the traced side is, in percent of the untraced
// median.
func (e *env) overhead(pairs int, op func() (time.Duration, error)) error {
	saved := e.tr
	defer func() { e.tr = saved }()
	var on, off []float64
	for i := 0; i < pairs; i++ {
		e.tr = nil
		d, err := op()
		if !e.op(err) {
			return err
		}
		off = append(off, float64(d))
		e.tr = saved
		if d, err = op(); !e.op(err) {
			return err
		}
		on = append(on, float64(d))
	}
	saved.count("bench.tracing_overhead_pct", (median(on)-median(off))/median(off)*100)
	saved.count("bench.overhead_samples", 1)
	return nil
}

// traceCounter reads the server's HTTP request counter in traced runs.
func (e *env) traceCounter(c *server.Client) (int64, error) {
	if e.tr == nil {
		return 0, nil
	}
	return counter(context.Background(), c, "server.http.requests")
}

// traceRequests adds the HTTP requests the server saw since before (the
// two /metrics reads excluded) and the jobs they served.
func (e *env) traceRequests(out *svcOut, c *server.Client, before int64, jobs int) {
	if e.tr == nil {
		return
	}
	after, err := e.traceCounter(c)
	if e.op(err) {
		out.requests += after - before - 1
		out.jobs += int64(jobs)
	}
}

// traceServerSpans imports the server-side phase spans of up to 300 jobs
// from GET /v1/jobs/{id}/spans?format=raw, labelled with the job class.
func (e *env) traceServerSpans(c *server.Client, rs []jobResult, class string) {
	if e.tr == nil {
		return
	}
	for i, r := range rs {
		if i == 300 {
			break
		}
		exp, err := c.Spans(context.Background(), r.id)
		if !e.op(err) {
			return
		}
		for _, sp := range exp.Spans {
			e.tr.recordAt("polyflowd", class+"/"+sp.Name, sp.Start, sp.End, 0)
		}
	}
}

// traceFleet imports the joined span exports of one phase's jobs and,
// for the cold phase, the cluster's counters.
func (e *env) traceFleet(f *fleet, out *clusterOut, phase string) error {
	ctx := context.Background()
	if phase == "cold" {
		retries, err := counter(ctx, f.coord.client, "cluster.retries")
		if !e.op(err) {
			return err
		}
		e.tr.count("cluster.retries", float64(retries))
		for _, w := range f.workers {
			fetches, err1 := counter(ctx, w.client, "server.traces.upstream_fetches")
			emuRuns, err2 := counter(ctx, w.client, "server.traces.emu_decodes")
			if !e.op(err1) || !e.op(err2) {
				return fmt.Errorf("worker metrics: %v %v", err1, err2)
			}
			e.tr.count("cluster.trace_fetches", float64(fetches))
			e.tr.count("cluster.worker_emu_runs", float64(emuRuns))
		}
	}
	for _, id := range out.obs.order {
		j := out.obs.jobs[id]
		if j.phase != phase {
			continue
		}
		exp, err := f.coord.client.Spans(ctx, id)
		if !e.op(err) {
			return err
		}
		for _, sp := range exp.Spans {
			host := "coordinator"
			if sp.Host != "" {
				host = "worker"
			}
			e.tr.recordAt("cluster", phase+"/"+host+"/"+sp.Name, sp.Start, sp.End, 0)
		}
	}
	return nil
}

// ladder times each layer's public functions, single-threaded, on the
// named workloads: the same calls speculate.PrepareWorkload and a grid
// make, one at a time, with the allocation they cause.
func ladder(e *env, names, policies []string, arts [][]byte) error {
	var ms0, ms1 runtime.MemStats
	alloc := func(f func() error) (uint64, error) {
		runtime.ReadMemStats(&ms0)
		err := f()
		runtime.ReadMemStats(&ms1)
		return ms1.TotalAlloc - ms0.TotalAlloc, err
	}
	cols := append([]string{"superscalar"}, policies...)
	for _, name := range names {
		w, ok := workloads.ByName(name)
		if !ok {
			return fmt.Errorf("unknown workload %s", name)
		}
		t := time.Now()
		prog := w.Assemble()
		e.tr.record("asm", "assemble", t, 0)

		var b speculate.Bench
		b.Name, b.Prog, b.SourceSHA, b.MaxInstrs = w.Name, prog, w.SHA(), w.MaxInstrs
		t = time.Now()
		bytes, err := alloc(func() (err error) {
			b.Trace, err = emu.Run(prog, emu.Config{MaxInstrs: w.MaxInstrs, OS: w.NewOS(), Segments: w.Segments(prog)})
			return err
		})
		if !e.op(err) {
			return err
		}
		n := int64(b.Trace.Len())
		e.tr.record("emu", "run", t, n)
		e.tr.count("emu.run_alloc_bytes", float64(bytes))

		t = time.Now()
		err = emu.CheckOS(prog, b.Trace, w.NewOS())
		e.tr.record("emu", "check", t, n)
		if !e.op(err) {
			return err
		}
		t = time.Now()
		b.Analysis, err = core.Analyze(prog, b.Trace.IndirectTargets())
		e.tr.record("core", "analyze", t, 0)
		if !e.op(err) {
			return err
		}
		t = time.Now()
		b.Deps = b.Trace.ComputeDeps()
		e.tr.record("trace", "deps", t, n)

		t = time.Now()
		enc, err := tracestore.Encode(b.Trace, b.Deps)
		e.tr.record("tracestore", "encode", t, n)
		if !e.op(err) {
			return err
		}
		e.tr.count("tracestore.bytes", float64(len(enc)))
		t = time.Now()
		_, _, err = tracestore.Decode(enc)
		e.tr.record("tracestore", "decode", t, n)
		if !e.op(err) {
			return err
		}

		for _, col := range cols {
			cfg := baseConfig(col)
			var res machine.Result
			t = time.Now()
			bytes, err := alloc(func() (err error) {
				res, err = b.RunNamed(col, cfg)
				return err
			})
			if !e.op(err) {
				return err
			}
			e.tr.record("machine", col, t, res.Retired)
			e.tr.count("machine.cycles", float64(res.Cycles))
			e.tr.count("machine.alloc_bytes", float64(bytes))
		}
	}

	t := time.Now()
	_, err := harness.Figure9Opts(harness.Options{Benches: names, Policies: policies})
	e.tr.record("harness", "grid", t, 0)
	if !e.op(err) {
		return err
	}

	dir, err := e.tempDir("ladder-cache-")
	if err != nil {
		return err
	}
	mem, err1 := artifact.New(artifact.Options{})
	disk, err2 := artifact.New(artifact.Options{Dir: dir})
	if !e.op(err1) || !e.op(err2) {
		return fmt.Errorf("ladder caches: %v %v", err1, err2)
	}
	hashes := make([]string, len(arts))
	for i, data := range arts {
		sum := sha256.Sum256(data)
		hashes[i] = hex.EncodeToString(sum[:])
		t := time.Now()
		err := mem.Put(hashes[i], data)
		e.tr.record("artifact", "mem_put", t, int64(len(data)))
		e.op(err)
		t = time.Now()
		_, ok, err := mem.Get(hashes[i])
		e.tr.record("artifact", "mem_get", t, 0)
		e.check(ok && err == nil, "memory cache lost an artifact: %v", err)
		t = time.Now()
		err = disk.Put(hashes[i], data)
		e.tr.record("artifact", "disk_put", t, 0)
		e.op(err)
		t = time.Now()
		_, err = artifact.DecodeSim(data)
		e.tr.record("artifact", "decode_sim", t, 0)
		e.op(err)
	}
	fresh, err := artifact.New(artifact.Options{Dir: dir})
	if !e.op(err) {
		return err
	}
	for _, h := range hashes {
		t := time.Now()
		_, ok, err := fresh.Get(h)
		e.tr.record("artifact", "disk_get", t, 0)
		e.check(ok && err == nil, "disk cache lost an artifact: %v", err)
	}
	return nil
}

// layerMetrics turns the run's spans and counters into the per-layer
// metrics.
func layerMetrics(e *env) {
	tr := e.tr
	perInstr := func(layer, name string) float64 {
		d, n, _ := tr.total(layer, name)
		return float64(d) / float64(n)
	}
	totalMS := func(layer, name string) float64 {
		d, _, _ := tr.total(layer, name)
		return ms(d)
	}
	meanMS := func(layer, name string) float64 {
		d, _, k := tr.total(layer, name)
		return ms(d) / float64(k)
	}
	ratio := func(a, b string) float64 {
		if tr.counts[b] == 0 {
			return 0
		}
		return tr.counts[a] / tr.counts[b]
	}
	_, instrs, _ := tr.total("emu", "run")

	e.set("asm.assemble_ms", "ms", totalMS("asm", "assemble"))
	e.set("emu.run_ns_per_instr", "ns", perInstr("emu", "run"))
	e.set("emu.run_alloc_bytes_per_instr", "B", tr.counts["emu.run_alloc_bytes"]/float64(instrs))
	e.set("emu.check_ns_per_instr", "ns", perInstr("emu", "check"))
	e.set("core.analyze_ms", "ms", totalMS("core", "analyze"))
	e.set("trace.deps_ns_per_instr", "ns", perInstr("trace", "deps"))
	e.set("tracestore.encode_ns_per_instr", "ns", perInstr("tracestore", "encode"))
	e.set("tracestore.decode_ns_per_instr", "ns", perInstr("tracestore", "decode"))
	e.set("tracestore.bytes_per_instr", "B", tr.counts["tracestore.bytes"]/float64(instrs))

	var gridD time.Duration
	var gridN int64
	for _, p := range append([]string{"superscalar"}, fig9Policies()...) {
		d, n, _ := tr.total("machine", p)
		gridD += d
		gridN += n
	}
	e.set("machine.superscalar_ns_per_instr", "ns", perInstr("machine", "superscalar"))
	e.set("machine.postdoms_ns_per_instr", "ns", perInstr("machine", "postdoms"))
	e.set("machine.grid_ns_per_instr", "ns", float64(gridD)/float64(gridN))
	e.set("machine.ns_per_sim_cycle", "ns", float64(gridD)/tr.counts["machine.cycles"])
	e.set("machine.alloc_bytes_per_instr", "B", tr.counts["machine.alloc_bytes"]/float64(gridN))
	e.set("sim.grid_cycles", "count", tr.counts["machine.cycles"])
	harnessGrid, _, _ := tr.total("harness", "grid")
	e.set("harness.parallel_efficiency", "ratio", float64(gridD)/(float64(harnessGrid)*float64(runtime.GOMAXPROCS(0))))
	e.set("jobqueue.rejected_per_job", "count", ratio("jobqueue.rejected", "jobqueue.jobs"))

	e.set("server.submit_ms", "ms", meanMS("server", "submit"))
	e.set("server.wait_ms", "ms", meanMS("server", "wait"))
	e.set("server.result_fetch_ms", "ms", meanMS("server", "result_fetch"))
	e.set("server.http_requests_per_job", "count", ratio("server.requests", "server.jobs"))
	e.set("server.queue_wait_ms", "ms", spanMean(tr, "polyflowd", []string{"cold", "warm", "restart"}, "queue_wait"))
	e.set("server.bench_load_ms", "ms", spanMean(tr, "polyflowd", []string{"cold"}, "bench_load"))
	e.set("server.simulate_ms", "ms", spanMean(tr, "polyflowd", []string{"cold"}, "simulate"))
	e.set("server.cache_lookup_ms", "ms", spanMean(tr, "polyflowd", []string{"warm"}, "cache_lookup"))
	e.set("server.artifact_encode_ms", "ms", spanMean(tr, "polyflowd", []string{"cold"}, "artifact_encode"))

	e.set("artifact.mem_get_us", "us", meanMS("artifact", "mem_get")*1000)
	e.set("artifact.disk_get_us", "us", meanMS("artifact", "disk_get")*1000)
	e.set("artifact.disk_put_us", "us", meanMS("artifact", "disk_put")*1000)
	e.set("artifact.decode_sim_us", "us", meanMS("artifact", "decode_sim")*1000)
	_, simBytes, puts := tr.total("artifact", "mem_put")
	e.set("artifact.sim_bytes", "B", float64(simBytes)/float64(puts))
	e.set("artifact.hit_ratio", "ratio", ratio("artifact.hits", "artifact.lookups"))

	e.set("cluster.dispatch_ms", "ms", spanMean(tr, "cluster", []string{"cold/coordinator", "warm/coordinator"}, "dispatch"))
	e.set("cluster.retries", "count", tr.counts["cluster.retries"])
	e.set("cluster.trace_fetches", "count", tr.counts["cluster.trace_fetches"])
	e.set("cluster.worker_emu_runs", "count", tr.counts["cluster.worker_emu_runs"])
	e.set("cluster.worker_busy_share", "ratio", workerBusyShare(tr))
	e.set("cluster.cold_grid_s", "s", tr.counts["cluster.cold_grid_s"])
	e.set("cluster.warm_grid_s", "s", tr.counts["cluster.warm_grid_s"])

	e.set("bench.unattributed_share", "ratio", tr.unattributedShare())
	e.set("bench.tracing_overhead_pct", "%", ratio("bench.tracing_overhead_pct", "bench.overhead_samples"))
}

// spanMean is the mean duration, in ms, of the named server phase over
// the imported spans of the given job classes.
func spanMean(tr *tracer, layer string, classes []string, phase string) float64 {
	var d time.Duration
	k := 0
	for _, c := range classes {
		dd, _, kk := tr.total(layer, c+"/"+phase)
		d += dd
		k += kk
	}
	if k == 0 {
		return 0
	}
	return ms(d) / float64(k)
}

// workerBusyShare is the share of the cold grid's wall time, times the
// worker count, that workers spent loading benches and serving cells
// (trace fetch, bench load, cache lookup with any simulation inside it).
func workerBusyShare(tr *tracer) float64 {
	var busy time.Duration
	for _, p := range []string{"trace_fetch", "bench_load", "cache_lookup"} {
		d, _, _ := tr.total("cluster", "cold/worker/"+p)
		busy += d
	}
	wall := tr.counts["cluster.cold_grid_s"]
	if wall == 0 {
		return 0
	}
	return busy.Seconds() / (wall * fleetWorkers)
}
