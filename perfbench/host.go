package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host is the shape of the machine a result was taken on. Results from
// different shapes are not comparable: compare refuses them.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func stampHost() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// record is one line of results.jsonl.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Host     host   `json:"host"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		var r record
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return recs, nil
}

// runCompare prints, for every (workload, trace, metric) present in both
// files, the median of each side and the candidate's change. It refuses
// (exit 1) when the two files — or the runs inside one file — were taken
// on different host shapes.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare BASE.jsonl CANDIDATE.jsonl")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return 1
		}
		sides[i] = recs
	}
	want := sides[0][0].Host
	for i, recs := range sides {
		for _, r := range recs {
			if r.Host != want {
				fmt.Fprintf(stderr, "perfbench compare: host-shape mismatch in %s: %+v vs %+v\n", args[i], r.Host, want)
				return 1
			}
		}
	}
	type key struct {
		workload string
		trace    int
		metric   string
	}
	var vals [2]map[key][]float64
	units := map[key]string{}
	for i, recs := range sides {
		vals[i] = map[key][]float64{}
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, r.Trace, name}
				vals[i][k] = append(vals[i][k], m.Value)
				units[k] = m.Unit
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if _, ok := vals[1][k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.trace != b.trace {
			return a.trace < b.trace
		}
		return a.metric < b.metric
	})
	fmt.Fprintf(stdout, "host: %+v\n", want)
	fmt.Fprintf(stdout, "%-15s %-5s %-24s %14s %14s %9s %s\n", "workload", "trace", "metric", "base_median", "cand_median", "change", "unit")
	for _, k := range keys {
		b, c := median(vals[0][k]), median(vals[1][k])
		change := "n/a"
		if b != 0 {
			change = strconv.FormatFloat(100*(c-b)/b, 'f', 2, 64) + "%"
		}
		fmt.Fprintf(stdout, "%-15s %-5d %-24s %14.6g %14.6g %9s %s  (n=%d/%d)\n",
			k.workload, k.trace, k.metric, b, c, change, units[k], len(vals[0][k]), len(vals[1][k]))
	}
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	u, s := cpuSplit()
	return u + s
}

// cpuSplit is the process's user and system CPU time so far.
func cpuSplit() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// statusMiB reads one memory field of /proc/self/status ("VmRSS:",
// "VmHWM:") in MiB.
func statusMiB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// rssSampler samples the process's resident set (VmRSS) every rssEvery
// while a measured phase runs. peak_rss_mib is the 95th percentile of the
// samples rather than VmHWM: the high-water mark records a single instant,
// and how far the heap overshoots during one concurrent GC cycle depends on
// how the host schedules the mark workers, so VmHWM of the same work
// differed by a quarter between runs.
type rssSampler struct {
	stop, done chan struct{}
	mib        []float64
}

const rssEvery = 20 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if v, err := statusMiB("VmRSS:"); err == nil {
				s.mib = append(s.mib, v)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and sets peak_rss_mib, noting VmHWM beside it.
func (s *rssSampler) finish(o *outcome) error {
	close(s.stop)
	<-s.done
	if len(s.mib) == 0 {
		return fmt.Errorf("no VmRSS samples")
	}
	hwm, err := statusMiB("VmHWM:")
	if err != nil {
		return err
	}
	o.set("peak_rss_mib", quantile(s.mib, 0.95), "MiB", len(s.mib))
	o.note("VmHWM %.2f MiB; VmRSS max over the measured phase %.2f MiB", hwm, quantile(s.mib, 1))
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
