package main

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"

	"vce/internal/obs"
)

// tracedPhase brackets the profiled part of a traced run: a CPU profile plus
// Go runtime counters (GC CPU, bytes allocated) read at both ends.
type tracedPhase struct {
	path       string
	f          *os.File
	err        error
	gc0, cpu0  float64
	totalAlloc uint64
}

var runtimeSamples = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() (gc, total float64, alloc uint64) {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	runtime.GC() // the cpu-seconds classes are brought up to date at GC
	metrics.Read(s)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return s[0].Value.Float64(), s[1].Value.Float64(), m.TotalAlloc
}

func startTraced(path string) *tracedPhase {
	t := &tracedPhase{path: path}
	t.gc0, t.cpu0, t.totalAlloc = readRuntime()
	t.f, t.err = os.Create(path)
	if t.err == nil {
		if t.err = pprof.StartCPUProfile(t.f); t.err != nil {
			t.f.Close()
		}
	}
	return t
}

// profile is what one traced phase measured.
type profile struct {
	shares              map[string]float64 // layer → % of CPU samples whose leaf frame is in it
	gcPct, allocPerTask float64
	tasks               int
}

// stop ends the profile, reads the runtime counters and groups the profile's
// flat samples by layer. tasks is the completed-task count of the phase.
func (t *tracedPhase) stop(ctx context.Context, tasks int) (profile, error) {
	pprof.StopCPUProfile()
	if err := t.f.Close(); err != nil {
		return profile{}, err
	}
	gc1, cpu1, alloc1 := readRuntime()
	p := profile{tasks: tasks}
	if cpu1 > t.cpu0 {
		p.gcPct = 100 * (gc1 - t.gc0) / (cpu1 - t.cpu0)
	}
	if tasks > 0 {
		p.allocPerTask = float64(alloc1-t.totalAlloc) / float64(tasks)
	}
	var err error
	p.shares, err = layerShares(ctx, t.path)
	return p, err
}

// selfPctLayers are the layers reported as <layer>.self_pct.
var selfPctLayers = []string{"sched", "scenario", "vtime", "sim", "runtime", "netsim"}

func (p profile) addTo(o *outcome) {
	for _, l := range selfPctLayers {
		o.set(l+".self_pct", p.shares[l], "%", 1)
	}
	o.set("gc.cpu_pct", p.gcPct, "%", 1)
	o.set("alloc_bytes_per_task", p.allocPerTask, "B/task", p.tasks)
	o.artifact["profile_pct_by_layer"] = p.shares
}

// layerShares runs `go tool pprof -top` on a CPU profile and sums the flat
// percentages of its functions by layer (see layerOf).
func layerShares(ctx context.Context, path string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-filefunctions", exe, path)
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTop(string(out))
}

// parseTop sums the flat% column of `pprof -top -filefunctions` output by
// layer. Lines look like
//
//	flat  flat%   sum%        cum   cum%
//	2.10s 45.65% 45.65%      2.30s 50.00%  vce/internal/sched.pickBest /src/internal/sched/sched.go
func parseTop(out string) (map[string]float64, error) {
	shares := map[string]float64{}
	header := false
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if !header {
			header = len(f) >= 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", line, err)
		}
		file := ""
		if len(f) >= 7 {
			file = f[len(f)-1]
		}
		shares[layerOf(f[5], file)] += pct
	}
	if !header {
		return nil, fmt.Errorf("pprof -top printed no table")
	}
	return shares, nil
}

// layerOf maps a leaf function to the repository layer it belongs to: the
// repo's own packages by name (vce/internal/scenario/store → "store"), all of
// the Go runtime as "runtime" except system calls ("syscall": file and
// network I/O), scenario/topology.go with netsim (it prices
// transfers), and anything else as "other".
func layerOf(fn, file string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "syscall" || pkg == "internal/runtime/syscall":
		return "syscall"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "vce/internal/scenario" && strings.HasSuffix(file, "/topology.go"):
		return "netsim"
	case strings.HasPrefix(pkg, "vce/internal/"):
		return pkg[strings.LastIndex(pkg, "/")+1:]
	}
	return "other"
}

// addTelemetry reports the executor's phase times and kernel events from an
// obs.Recorder summary, per simulated cell run, so the figures do not depend
// on how many runs fitted in the traced pass.
func addTelemetry(o *outcome, s obs.Summary) {
	t := s.Totals
	n := float64(t.Cells - t.CachedCells)
	o.set("exec.setup_ms", t.SetupMS/n, "ms", int(n))
	o.set("exec.simulate_ms", t.SimulateMS/n, "ms", int(n))
	o.set("exec.measure_ms", t.MeasureMS/n, "ms", int(n))
	o.set("vtime.events", float64(t.Kernel.Fired)/n, "count", int(n))
	eps := 0.0
	if t.SimulateMS > 0 {
		eps = float64(t.Kernel.Fired) / (t.SimulateMS / 1000)
	}
	o.set("vtime.events_per_s", eps, "1/s", t.Cells)
	o.artifact["telemetry_totals"] = t
}
