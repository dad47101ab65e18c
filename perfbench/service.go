package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	speculate "repro"
	"repro/internal/artifact"
	"repro/internal/server"
)

// svcServer is one in-process polyflowd on loopback.
type svcServer struct {
	srv    *server.Server
	hs     *http.Server
	client *server.Client
	served chan error
}

// startServer opens a disk-backed cache in dir and serves polyflowd on a
// loopback port, returning once /readyz answers. The duration is one
// set-up sample.
func startServer(dir string) (*svcServer, time.Duration, error) {
	start := time.Now()
	cache, err := artifact.New(artifact.Options{Dir: dir})
	if err != nil {
		return nil, 0, err
	}
	srv, err := server.New(server.Config{Cache: cache})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	s := &svcServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		client: &server.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: &http.Transport{}}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for !s.client.Ready(ctx) {
		if ctx.Err() != nil {
			s.stop()
			return nil, 0, errors.New("in-process polyflowd never became ready")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return s, time.Since(start), nil
}

func (s *svcServer) stop() {
	s.srv.Close()
	s.hs.Shutdown(context.Background())
	<-s.served
	s.client.HTTP.Transport.(*http.Transport).CloseIdleConnections()
}

// counter reads one counter from the server's /metrics summary.
func counter(ctx context.Context, c *server.Client, name string) (int64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 3 && f[0] == "counter" && f[1] == name {
			return strconv.ParseInt(f[2], 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no counter %s", name)
}

// jobResult is one finished request.
type jobResult struct {
	cell    cellKey
	id      string
	latency time.Duration
	data    []byte
	hit     bool
}

// runJob submits one cell, polls it to completion and fetches its
// artifact, as cmd/polyload does (1 ms poll, 429 waited out).
func runJob(ctx context.Context, tr *tracer, c *server.Client, k cellKey, rejected *int64) (jobResult, error) {
	start := time.Now()
	req := server.Request{Bench: k.bench, Policy: k.policy, SpawnMask: k.mask}
	var st server.Status
	for {
		t := time.Now()
		var code int
		var err error
		st, code, err = c.Submit(ctx, req)
		tr.record("server", "submit", t, 0)
		if err == nil {
			break
		}
		if code != http.StatusTooManyRequests {
			return jobResult{}, err
		}
		*rejected++
		time.Sleep(time.Millisecond)
	}
	t := time.Now()
	fin, err := c.Wait(ctx, st.ID, time.Millisecond)
	tr.record("server", "wait", t, 0)
	if err != nil {
		return jobResult{}, err
	}
	if fin.State != "succeeded" {
		return jobResult{}, fmt.Errorf("job %s (%v) %s: %s", st.ID, k, fin.State, fin.Error)
	}
	t = time.Now()
	data, err := c.ResultBytes(ctx, st.ID)
	tr.record("server", "result_fetch", t, int64(len(data)))
	if err != nil {
		return jobResult{}, err
	}
	lat := tr.record("e2e", "job", start, 0)
	return jobResult{cell: k, id: st.ID, latency: lat, data: data, hit: fin.CacheHit}, nil
}

// closedLoop runs clients goroutines, each sending its next request only
// after the previous one completes, until next reports no more work.
// Results come back in completion order.
func closedLoop(e *env, c *server.Client, clients int, next func(client int) (cellKey, bool)) ([]jobResult, int64, error) {
	var mu sync.Mutex
	var out []jobResult
	var errs []error
	var rejected int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rej int64
			for {
				k, ok := next(i)
				if !ok {
					break
				}
				r, err := runJob(context.Background(), e.tr, c, k, &rej)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					out = append(out, r)
				}
				mu.Unlock()
			}
			mu.Lock()
			rejected += rej
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		e.op(err)
	}
	for range out {
		e.op(nil)
	}
	return out, rejected, errors.Join(errs...)
}

// serviceMixCells is service-mix's cell set: both families, four
// policies. Superscalar and postdoms over every workload give both
// families' postdoms rows.
func serviceMixCells() []cellKey {
	var out []cellKey
	for _, b := range speculate.AllWorkloadNames() {
		for _, p := range []string{"superscalar", "postdoms", "rec_pred", "loopFT"} {
			out = append(out, cellKey{bench: b, policy: p})
		}
	}
	return out
}

// svcOut is what the service phases measured.
type svcOut struct {
	setup               []float64
	cold, warm, restart []jobResult
	coldWall, warmWall  time.Duration
	rejected            int64
	arts                *artifactSet
	// per-request HTTP counts from /metrics (traced runs)
	requests, jobs int64
}

// servicePhases runs the service-mix traffic over cells with two clients
// in a closed loop (the host has two CPUs). The host's speed drifts over
// seconds, so the run repeats one round of every phase until the budget
// is spent, and every metric samples the whole run:
//
//   - cold: a fresh server over a fresh cache directory, with the bench
//     memo emptied; each cell's first request loads its bench, simulates,
//     encodes and stores the artifact;
//   - warm: 1000 seeded repeat requests against the same server, served
//     from memory;
//   - restart: a fresh server over the same directory, every cell once,
//     served from disk.
//
// Every server start is a set-up sample.
func servicePhases(e *env, cells []cellKey, seconds time.Duration) (*svcOut, error) {
	rng := rand.New(rand.NewSource(e.seed))
	out := &svcOut{arts: newArtifactSet()}
	var srv *svcServer
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	start := func(dir string) error {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		s, setup, err := startServer(dir)
		if !e.op(err) {
			return err
		}
		srv = s
		out.setup = append(out.setup, setup.Seconds())
		return nil
	}
	// serve runs one closed loop and hands each artifact to the checks,
	// dropping the job's copy so warm jobs do not pile up in memory.
	serve := func(clients int, next func(client int) (cellKey, bool)) ([]jobResult, error) {
		before, err := e.traceCounter(srv.client)
		if err != nil {
			return nil, err
		}
		rs, rej, err := closedLoop(e, srv.client, clients, next)
		out.rejected += rej
		e.traceRequests(out, srv.client, before, len(rs))
		for i := range rs {
			out.arts.add(rs[i].cell, rs[i].data)
			rs[i].data = nil
		}
		return rs, err
	}
	// ordered serves every cell once, in a seeded order.
	ordered := func() ([]jobResult, error) {
		perm := rng.Perm(len(cells))
		var mu sync.Mutex
		return serve(2, func(int) (cellKey, bool) {
			mu.Lock()
			defer mu.Unlock()
			if len(perm) == 0 {
				return cellKey{}, false
			}
			k := cells[perm[0]]
			perm = perm[1:]
			return k, true
		})
	}

	deadline := time.Now().Add(seconds)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		dir, err := e.tempDir("svc-cache-")
		if err != nil {
			return nil, err
		}
		speculate.ClearBenchCache()
		runtime.GC()
		if err := start(dir); err != nil {
			return nil, err
		}
		t := time.Now()
		rs, err := ordered()
		out.coldWall += time.Since(t)
		if err != nil {
			return nil, err
		}
		e.check(allHits(rs, false), "a cold request was served from the cache")
		e.traceServerSpans(srv.client, rs, "cold")
		out.cold = append(out.cold, rs...)

		rngs := []*rand.Rand{rand.New(rand.NewSource(rng.Int63())), rand.New(rand.NewSource(rng.Int63()))}
		left := [2]int{500, 500}
		t = time.Now()
		rs, err = serve(2, func(client int) (cellKey, bool) {
			left[client]--
			return cells[rngs[client].Intn(len(cells))], left[client] >= 0
		})
		out.warmWall += time.Since(t)
		if err != nil {
			return nil, err
		}
		e.check(allHits(rs, true), "a warm request missed the cache")
		e.traceServerSpans(srv.client, rs, "warm")
		out.warm = append(out.warm, rs...)

		if e.tr != nil && round == 0 {
			err := e.overhead(10, func() (time.Duration, error) {
				n := 0
				t := time.Now()
				_, err := serve(1, func(int) (cellKey, bool) {
					n++
					return cells[rng.Intn(len(cells))], n <= 20
				})
				return time.Since(t), err
			})
			if err != nil {
				return nil, err
			}
		}

		if err := start(dir); err != nil {
			return nil, err
		}
		rs, err = ordered()
		if err != nil {
			return nil, err
		}
		e.check(allHits(rs, true), "a restart request missed the disk cache")
		e.traceServerSpans(srv.client, rs, "restart")
		out.restart = append(out.restart, rs...)

		// More set-up samples: a start is well under a millisecond, so one
		// or two per round would leave its median to chance.
		for i := 0; i < 8; i++ {
			if err := start(dir); err != nil {
				return nil, err
			}
		}
		srv.stop()
		srv = nil
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func allHits(rs []jobResult, want bool) bool {
	for _, r := range rs {
		if r.hit != want {
			return false
		}
	}
	return true
}

func latencies(rs []jobResult) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = ms(r.latency)
	}
	return out
}

// familySpeedups checks the postdoms speedups carried by received
// artifacts against the recorded rows of both families and returns their
// mean over every workload.
func familySpeedups(e *env, arts *artifactSet) float64 {
	var all []float64
	for _, fam := range speculate.WorkloadFamilies() {
		want, err := expectedRow(fam)
		if !e.op(err) {
			continue
		}
		for i, b := range want.Benches {
			base, err1 := decodeResult(arts, cellKey{bench: b, policy: "superscalar"})
			pd, err2 := decodeResult(arts, cellKey{bench: b, policy: "postdoms"})
			if !e.op(errors.Join(err1, err2)) {
				continue
			}
			got := speculate.SpeedupPct(base, pd)
			e.check(got == want.Row[i], "%s postdoms speedup %v, recorded %v", b, got, want.Row[i])
			all = append(all, got)
		}
	}
	return mean(all)
}

// simulatedInstrs sums the instructions the cold jobs simulated.
func simulatedInstrs(e *env, arts *artifactSet, rs []jobResult) int64 {
	var n int64
	for _, r := range rs {
		res, err := decodeResult(arts, r.cell)
		if e.op(err) {
			n += res.Retired
		}
	}
	return n
}

func runService(e *env) error {
	out, err := servicePhases(e, serviceMixCells(), e.seconds)
	if err != nil {
		return err
	}
	return serviceMetrics(e, out)
}

func serviceMetrics(e *env, out *svcOut) error {
	out.arts.verify(e, speculate.Load)
	e.set("setup_s", "s", median(out.setup))
	e.set("ns_per_sim_instr", "ns", float64(out.coldWall)/float64(simulatedInstrs(e, out.arts, out.cold)))
	e.set("postdoms_speedup_pct", "%", familySpeedups(e, out.arts))
	e.set("peak_rss_mb", "MB", selfPeakRSSMB())
	return jobMetrics(e, latencies(out.cold), latencies(out.warm), latencies(out.restart),
		float64(len(out.warm))/out.warmWall.Seconds())
}
