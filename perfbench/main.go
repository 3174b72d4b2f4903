// Command perfbench is the repository's end-to-end benchmark. It drives three
// workloads through the scenario engine's public entry points —
// scenario.RunContext for two simulation cells, and service.Server over
// net/http/httptest for the sweep daemon — checks every report it gets back,
// and prints the metrics BENCHMARK.json names.
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//	perfbench compare BASE.jsonl CANDIDATE.jsonl
//
// With --trace 0 the run measures the end-to-end metrics with every kind of
// tracing off. With --trace 1 it makes a separate traced pass instead: the
// workload runs once untraced and once with scenario.Options.Telemetry and a
// CPU profile on, and the benchmark's own probes time calls into each
// layer's public functions. Either way the last line of standard output is
// one JSON object with the keys correct, attempted, failed and metrics; the
// lines before it print every metric with its unit and sample count.
//
// Inputs come only from --seed: the same seed gives the same specs. A
// correctness mismatch (a repeated run, a cache replay or a daemon report
// whose bytes differ from the reference, or simulation output that no longer
// matches the recorded report_sha256) exits 1 with a named error and prints
// no result.
//
// Every run appends its result and a host-shape stamp to
// <out>/results.jsonl; `perfbench compare` prints per-metric medians of two
// such files and refuses to compare results taken on different host shapes.
// Traced runs also write <out>/trace-<workload>.json.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// config is workloads.json: the recorded report hashes, the fixed service-mix
// load parameters, and the documented layer → end-to-end predictions.
type config struct {
	DefaultSeed  uint64                    `json:"default_seed"`
	ReportSHA256 map[string]string         `json:"report_sha256"`
	Workloads    map[string]workloadConfig `json:"workloads"`
}

type workloadConfig struct {
	NominalRatePerS float64   `json:"nominal_rate_per_s"`
	LatencyLimitMS  float64   `json:"latency_limit_ms"`
	RateLadderPerS  []float64 `json:"rate_ladder_per_s"`
}

//go:embed workloads.json
var configJSON []byte

// metric is one reported number. n is its sample count, printed on the
// human-readable line; the JSON result carries only value and unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	// notes are extra human-readable lines (workload-specific figures that
	// are not part of the JSON result).
	notes []string
	// artifact, for traced runs, is written to trace-<workload>.json.
	artifact map[string]any
}

func (o *outcome) set(name string, v float64, unit string, n int) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// mismatch is a failed correctness check. Check names the contract broken.
type mismatch struct {
	check, detail string
}

func (m *mismatch) Error() string { return "correctness check " + m.check + " failed: " + m.detail }

func mismatchf(check, format string, args ...any) error {
	return &mismatch{check: check, detail: fmt.Sprintf(format, args...)}
}

// runner carries one invocation's settings to the workload.
type runner struct {
	cfg     config
	name    string
	seed    uint64
	seconds time.Duration
	// dir is this run's scratch directory (stores, daemon state, artifact
	// probes); it is removed when the run ends.
	dir string
	// out keeps what outlives the run: results, profiles, traced artifacts.
	out string
}

type workload interface {
	measure(ctx context.Context, r *runner) (*outcome, error)
	trace(ctx context.Context, r *runner) (*outcome, error)
}

var workloads = map[string]workload{
	"stream-diurnal": streamDiurnal,
	"fleet-poisson":  fleetPoisson,
	"service-mix":    serviceMix{},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 0, "workload seed (0 = the recorded default seed)")
	seconds := fs.Float64("seconds", 10, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced per-layer run")
	out := fs.String("out", ".bench_build/perfbench", "directory for result files, profiles and traced-run artifacts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var cfg config
	if err := json.Unmarshal(configJSON, &cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: workloads.json: %v\n", err)
		return 2
	}
	if *seed == 0 {
		*seed = cfg.DefaultSeed
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := &runner{cfg: cfg, name: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), dir: dir, out: *out}

	host := stampHost()
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host: %s\n", hostLine)
	fmt.Fprintf(stdout, "workload: %s  seed: %d  seconds: %g  trace: %d\n", *name, *seed, *seconds, *trace)

	ctx := context.Background()
	var o *outcome
	if *trace == 1 {
		o, err = w.trace(ctx, r)
	} else {
		o, err = w.measure(ctx, r)
	}
	if err != nil {
		var m *mismatch
		if errors.As(err, &m) {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		} else {
			fmt.Fprintf(stderr, "perfbench: %s: run failed: %v\n", *name, err)
		}
		return 1
	}

	for _, line := range o.notes {
		fmt.Fprintln(stdout, line)
	}
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		fmt.Fprintf(stdout, "%-24s %14.6g %-9s n=%d\n", n, m.Value, m.Unit, m.n)
	}
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics}
	if o.artifact != nil {
		o.artifact["workload"] = *name
		o.artifact["seed"] = *seed
		o.artifact["seconds"] = *seconds
		o.artifact["host"] = host
		o.artifact["per_layer"] = o.metrics
		if err := writeJSONFile(filepath.Join(*out, "trace-"+*name+".json"), o.artifact); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	rec := record{Workload: *name, Seed: *seed, Trace: *trace, Host: host, Result: res}
	if err := appendRecord(filepath.Join(*out, "results.jsonl"), rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
