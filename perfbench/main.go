// Command perfbench is the repository's end-to-end benchmark. One run
// measures one workload for a fixed number of seconds and prints, as its
// last line, one JSON object with the end-to-end metrics (-trace 0) or the
// per-layer metrics (-trace 1). See README.md for the workloads, the
// metric map and the measured spreads.
//
//	perfbench -workload fig9-local -seed 1 -seconds 20 -trace 0 -polyflowd .bench_build/polyflowd
//
// run.sh builds this command and polyflowd from the checkout and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload gets: its inputs, its budget and the run's
// bookkeeping of operations, failures and metrics.
type env struct {
	seed      int64
	seconds   time.Duration
	polyflowd string // path of the polyflowd binary (cluster probe)
	workDir   string // scratch directory inside the checkout
	tr        *tracer

	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
}

// op counts one attempted operation, and a failed one when err is non-nil.
func (e *env) op(err error) bool {
	e.attempted++
	if err != nil {
		e.failed++
		e.problem(err.Error())
		return false
	}
	return true
}

// check counts one output check as an operation: a false ok is a failed
// operation with the given description.
func (e *env) check(ok bool, format string, args ...any) {
	if ok {
		e.op(nil)
		return
	}
	e.op(fmt.Errorf("check failed: "+format, args...))
}

func (e *env) problem(msg string) {
	if len(e.problems) < 20 {
		e.problems = append(e.problems, msg)
	}
}

func (e *env) set(name, unit string, v float64) {
	e.metrics[name] = metric{Value: v, Unit: unit}
}

// tempDir makes a fresh directory under the run's scratch directory.
func (e *env) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(e.workDir, prefix)
}

// runs maps each workload name to its untraced and traced runs.
var runs = map[string]struct {
	run    func(e *env) error
	traced func(e *env) error
}{
	"fig9-local":  {runFig9, tracedFig9},
	"service-mix": {runService, tracedService},
}

func main() {
	workload := flag.String("workload", "", "workload name: fig9-local or service-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	polyflowd := flag.String("polyflowd", "", "path of the polyflowd binary")
	workDir := flag.String("workdir", ".bench_build/run", "scratch directory (created, then emptied of this run's files)")
	flag.Parse()

	w, ok := runs[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *traceFlag)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	runDir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defer os.RemoveAll(runDir)

	e := &env{
		seed:      *seed,
		seconds:   time.Duration(*seconds) * time.Second,
		polyflowd: *polyflowd,
		workDir:   runDir,
		metrics:   map[string]metric{},
	}
	if *traceFlag == 1 {
		e.tr = newTracer()
	}
	sentinelStart := sentinel(e.seed)

	run := w.run
	if e.tr != nil {
		run = w.traced
	}
	runErr := run(e)
	sentinelEnd := sentinel(e.seed)

	if e.tr != nil {
		e.set("host.sentinel_ms", "ms", (sentinelStart+sentinelEnd)/2)
		path := filepath.Join(*workDir, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := e.tr.write(path); err != nil {
			runErr = errors.Join(runErr, err)
		} else {
			fmt.Println("spans written to", path)
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		os.Exit(1)
	}
	for _, p := range e.problems {
		fmt.Println("problem:", p)
	}
	prov := provenance(*workload, *seed, *traceFlag)
	prov["sentinel_ms"] = []float64{sentinelStart, sentinelEnd}
	pj, _ := json.Marshal(prov)
	fmt.Println("provenance:", string(pj))

	out, err := json.Marshal(result{
		Correct:   e.failed == 0 && e.attempted > 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   e.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// provenance describes where and on what the numbers were measured.
func provenance(workload string, seed int64, traced int) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"trace":      traced,
		"commit":     commit(),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

// commit names the measured source: BENCH_COMMIT when the launcher found
// one, else a hash of the Go sources and go.mod, since a benchmark
// checkout need not be a git repository.
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "tree:" + treeHash(".")
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfPeakRSSMB is this process's resident-set high-water mark.
func selfPeakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
