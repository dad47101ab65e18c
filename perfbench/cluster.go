package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"time"

	speculate "repro"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/server"
)

// daemon is one polyflowd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *server.Client
	drained chan struct{} // closed once stderr hits EOF
}

// startDaemon starts polyflowd on a free loopback port and returns once it
// has logged its listen address.
func startDaemon(bin string, args ...string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no polyflowd binary given (-polyflowd)")
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-log-level", "warn"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if _, rest, ok := strings.Cut(line, "listening on "); ok && !found {
				found = true
				addr <- strings.Fields(rest)[0]
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
		d.client = &server.Client{Base: d.base, HTTP: &http.Client{Transport: &http.Transport{}}}
		return d, nil
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("polyflowd %v never logged its address", args)
	}
}

// stop sends SIGTERM (polyflowd drains and exits) and waits for the
// process.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
	<-d.drained
	if d.client != nil {
		d.client.HTTP.Transport.(*http.Transport).CloseIdleConnections()
	}
}

// fleetWorkers is the worker count of every fleet.
const fleetWorkers = 2

// fleet is a coordinator and its workers, each its own process: the bench
// memo is process-global, so only separate workers fetch and decode traces.
type fleet struct {
	coord   *daemon
	workers []*daemon
}

// startFleet starts a coordinator and two single-threaded workers (so
// simulating threads equal the host's two CPUs) over dirs, and returns
// once every daemon answers /readyz — a worker turns ready only after it
// has registered with the coordinator.
func startFleet(bin string, dirs []string) (*fleet, error) {
	coord, err := startDaemon(bin, "-coordinator", "-cache-dir", dirs[0])
	if err != nil {
		return nil, err
	}
	f := &fleet{coord: coord}
	for _, dir := range dirs[1 : 1+fleetWorkers] {
		w, err := startDaemon(bin, "-join", coord.base, "-workers", "1", "-cache-dir", dir)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.workers = append(f.workers, w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for _, d := range append([]*daemon{coord}, f.workers...) {
		for !d.client.Ready(ctx) {
			if ctx.Err() != nil {
				f.stop()
				return nil, fmt.Errorf("polyflowd at %s never became ready", d.base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return f, nil
}

// stop stops workers first (they deregister), then the coordinator.
func (f *fleet) stop() {
	for _, w := range f.workers {
		w.stop()
	}
	f.coord.stop()
}

// observedJob is one remote cell as the benchmark's transport saw it.
type observedJob struct {
	cell  cellKey
	phase string
}

// observer is an http.RoundTripper in front of the harness's remote
// client. It notes each job's cell and phase, hands the result bytes to
// the output checks and records every request as a span.
type observer struct {
	base     http.RoundTripper
	tr       *tracer
	arts     *artifactSet
	mu       sync.Mutex
	phase    string
	jobs     map[string]*observedJob
	order    []string
	rejected int64
}

func newObserver(tr *tracer) *observer {
	return &observer{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr, arts: newArtifactSet(), jobs: map[string]*observedJob{}}
}

func (o *observer) setPhase(p string) {
	o.mu.Lock()
	o.phase = p
	o.mu.Unlock()
}

func (o *observer) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	submit := req.Method == http.MethodPost && req.URL.Path == "/v1/jobs"
	var sreq server.Request
	if submit && req.Body != nil {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(body, &sreq); err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
	}
	resp, err := o.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	end := time.Now()

	name := "status"
	id, isResult := strings.CutSuffix(strings.TrimPrefix(req.URL.Path, "/v1/jobs/"), "/result")
	switch {
	case submit:
		name = "submit"
	case isResult:
		name = "result_fetch"
	}
	o.tr.recordAt("remote", name, start, end, int64(len(body)))

	o.mu.Lock()
	defer o.mu.Unlock()
	switch {
	case submit && resp.StatusCode == http.StatusTooManyRequests:
		o.rejected++
	case submit && resp.StatusCode == http.StatusAccepted:
		var st server.Status
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, err
		}
		o.jobs[st.ID] = &observedJob{cell: cellKey{sreq.Bench, sreq.Policy, sreq.SpawnMask}, phase: o.phase}
		o.order = append(o.order, st.ID)
	case isResult && resp.StatusCode == http.StatusOK:
		if j := o.jobs[id]; j != nil {
			o.arts.add(j.cell, body)
		}
	}
	return resp, nil
}

// seededMasks draws n spawn masks of three sites each from the union of
// the kernels' spawn sites: the traffic polytune sends, which the cache
// cannot serve.
func seededMasks(seed int64, benches []*speculate.Bench, n int) []*machine.SpawnMask {
	type site struct {
		pc   uint64
		kind uint8
	}
	var sites []site
	seen := map[site]bool{}
	for _, b := range benches {
		for _, s := range b.Analysis.Spawns {
			k := site{s.From, uint8(s.Kind)}
			if !seen[k] {
				seen[k] = true
				sites = append(sites, k)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*machine.SpawnMask, n)
	for i := range out {
		m := machine.NewSpawnMask()
		for m.Len() < 3 {
			s := sites[rng.Intn(len(sites))]
			m.Add(s.pc, s.kind)
		}
		out[i] = m
	}
	return out
}

// clusterOut is what the cluster phases measured.
type clusterOut struct {
	first     *harness.SpeedupTable
	coldGrid  time.Duration
	warmWall  time.Duration
	warmGrids int
	obs       *observer
	benches   []*speculate.Bench
}

// clusterPhases drives the Figure-9 grid over the named workloads through
// harness.Options.Remote against a coordinator and two worker processes.
// One cold grid on a fresh fleet comes first: the coordinator emulates and
// encodes each trace, workers fetch and decode it. Then the run repeats one
// round of every phase until the budget is spent:
//
//   - restart: stop the fleet, start it over the same directories and run
//     the grid, served from the workers' disks;
//   - masked: two seeded spawn-masked grids, the traffic polytune sends,
//     which simulate every PolyFlow cell again;
//   - warm: two unmasked grids, dispatch and worker cache hits.
func clusterPhases(e *env, names, policies []string, seconds time.Duration) (*clusterOut, error) {
	out := &clusterOut{obs: newObserver(e.tr)}
	for _, n := range names {
		b, err := speculate.Load(n)
		if !e.op(err) {
			return nil, err
		}
		out.benches = append(out.benches, b)
	}
	var dirs []string
	for i := 0; i < 1+fleetWorkers; i++ {
		d, err := e.tempDir("fleet-")
		if err != nil {
			return nil, err
		}
		dirs = append(dirs, d)
	}
	var f *fleet
	stop := func() {
		if f != nil {
			f.stop()
			f = nil
		}
	}
	defer stop()
	start := func() error {
		stop()
		fl, err := startFleet(e.polyflowd, dirs)
		if !e.op(err) {
			return err
		}
		f = fl
		return nil
	}
	client := &server.Client{HTTP: &http.Client{Transport: out.obs}}
	grid := func(phase string, mask *machine.SpawnMask) (*harness.SpeedupTable, time.Duration, error) {
		out.obs.setPhase(phase)
		out.obs.tr = e.tr
		client.Base = f.coord.base
		t0 := time.Now()
		t, err := harness.Figure9Opts(harness.Options{Remote: client, Benches: names, Policies: policies, SpawnMask: mask})
		d := e.tr.record("e2e", "grid", t0, 0)
		if !e.op(err) {
			return nil, 0, err
		}
		if out.first != nil && mask == nil {
			e.check(sameTable(out.first, t), "%s grid table differs from the run's first table", phase)
		}
		return t, d, nil
	}

	if err := start(); err != nil {
		return nil, err
	}
	t, d, err := grid("cold", nil)
	if err != nil {
		return nil, err
	}
	out.first, out.coldGrid = t, d
	if e.tr != nil {
		if err := e.traceFleet(f, out, "cold"); err != nil {
			return nil, err
		}
	}

	masks := seededMasks(e.seed, out.benches, 1000)
	deadline := time.Now().Add(seconds)
	for round := 0; round < 2 || time.Now().Before(deadline); round++ {
		if err := start(); err != nil {
			return nil, err
		}
		if _, _, err := grid("restart", nil); err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			t, _, err := grid("masked", masks[2*round+i])
			if err != nil {
				return nil, err
			}
			e.check(reflect.DeepEqual(out.first.Base, t.Base), "masked grid changed the unmasked baselines")
		}
		for i := 0; i < 2; i++ {
			_, d, err := grid("warm", nil)
			if err != nil {
				return nil, err
			}
			out.warmWall += d
			out.warmGrids++
		}
		if e.tr != nil && round == 0 {
			if err := e.traceFleet(f, out, "warm"); err != nil {
				return nil, err
			}
		}
	}
	stop()
	return out, nil
}
