package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"

	speculate "repro"
	"repro/internal/artifact"
	"repro/internal/attrib"
	"repro/internal/harness"
	"repro/internal/machine"
)

// expectedJSON records each family's Figure-9 postdoms row (speedup % over
// the superscalar, in figure order) and its average. The timing model is
// deterministic, so a perf-only change must reproduce these exactly.
//
//go:embed expected.json
var expectedJSON []byte

type familyRow struct {
	Benches []string  `json:"benches"`
	Row     []float64 `json:"postdoms_row"`
	Average float64   `json:"postdoms_avg"`
}

func expectedRow(family string) (familyRow, error) {
	var all map[string]familyRow
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return familyRow{}, fmt.Errorf("expected.json: %w", err)
	}
	r, ok := all[family]
	if !ok {
		return familyRow{}, fmt.Errorf("expected.json has no %q family", family)
	}
	return r, nil
}

// checkPostdoms compares a table's postdoms row with the recorded one and
// returns the row's average.
func checkPostdoms(e *env, family string, t *harness.SpeedupTable) float64 {
	want, err := expectedRow(family)
	if !e.op(err) {
		return 0
	}
	row, ok := t.PolicyRow("postdoms")
	got := familyRow{Benches: t.Benches, Row: row, Average: postdomsAverage(t)}
	e.check(ok && reflect.DeepEqual(got, want), "%s postdoms row %v (avg %v), recorded %v (avg %v)",
		family, row, got.Average, want.Row, want.Average)
	return got.Average
}

func postdomsAverage(t *harness.SpeedupTable) float64 {
	for i, p := range t.Policies {
		if p == "postdoms" {
			return t.Average(i)
		}
	}
	return 0
}

// sameTable reports whether two grid tables hold identical results.
func sameTable(a, b *harness.SpeedupTable) bool {
	return reflect.DeepEqual(a.Benches, b.Benches) && reflect.DeepEqual(a.Policies, b.Policies) &&
		reflect.DeepEqual(a.Speedup, b.Speedup) && reflect.DeepEqual(a.Results, b.Results) &&
		reflect.DeepEqual(a.Base, b.Base)
}

// cellKey names one simulated cell.
type cellKey struct{ bench, policy, mask string }

// baseConfig is the machine configuration polyflowd and the harness give a
// cell of the named policy.
func baseConfig(policy string) machine.Config {
	if policy == "superscalar" {
		return machine.SuperscalarConfig()
	}
	return machine.PolyFlowConfig()
}

// localArtifact simulates one cell locally and encodes it exactly as a
// polyflowd job stores it: the canonical base configuration, attribution
// attached and verified, and the same cache key.
func localArtifact(b *speculate.Bench, policy, mask string) ([]byte, error) {
	cfg := baseConfig(policy)
	m, err := machine.ParseSpawnMask(mask)
	if err != nil {
		return nil, err
	}
	cfg.SpawnMask = m
	key, err := artifact.NewSimKey(b.Name, b.SourceSHA, b.MaxInstrs, policy, cfg)
	if err != nil {
		return nil, err
	}
	tbl := attrib.NewTable()
	cfg.Attribution = tbl
	res, err := b.RunNamedContext(context.Background(), policy, cfg)
	if err != nil {
		return nil, err
	}
	if err := machine.VerifyAttribution(tbl, res); err != nil {
		return nil, err
	}
	rep := attrib.NewReport(tbl, b.Name, policy, res.Config, res.Cycles, res.Retired)
	return artifact.EncodeSim(&artifact.SimArtifact{Key: key, Result: res, Attrib: rep})
}

// artifactSet collects every artifact a run received, keyed by cell. The
// first copy of a cell is the reference; later copies (warm and restart
// hits) must equal it byte for byte.
type artifactSet struct {
	mu    sync.Mutex
	first map[cellKey][]byte
	diffs []cellKey
	count int
}

func newArtifactSet() *artifactSet { return &artifactSet{first: map[cellKey][]byte{}} }

func (s *artifactSet) add(k cellKey, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.count++
	ref, ok := s.first[k]
	if !ok {
		s.first[k] = data
		return
	}
	if !bytes.Equal(ref, data) {
		s.diffs = append(s.diffs, k)
	}
}

// verify checks every received artifact: repeats against the first copy,
// and each distinct cell against a local simulation of the same cell and
// mask, run after the measured phases on GOMAXPROCS goroutines.
func (s *artifactSet) verify(e *env, load func(bench string) (*speculate.Bench, error)) {
	for _, k := range s.diffs {
		e.check(false, "%v: repeated artifact differs from the first copy", k)
	}
	e.check(s.count > 0, "no artifacts received")
	keys := make([]cellKey, 0, len(s.first))
	for k := range s.first {
		keys = append(keys, k)
	}
	errs := make([]error, len(keys))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := keys[i]
				b, err := load(k.bench)
				if err == nil {
					var local []byte
					local, err = localArtifact(b, k.policy, k.mask)
					if err == nil && !bytes.Equal(local, s.first[k]) {
						err = fmt.Errorf("check failed: %v: served artifact differs from a local run", k)
					}
				}
				errs[i] = err
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		e.op(err)
	}
}

// decodeResult returns the simulation result the set received for k.
func decodeResult(s *artifactSet, k cellKey) (machine.Result, error) {
	data, ok := s.first[k]
	if !ok {
		return machine.Result{}, fmt.Errorf("no artifact received for %v", k)
	}
	a, err := artifact.DecodeSim(data)
	if err != nil {
		return machine.Result{}, err
	}
	return a.Result, nil
}
