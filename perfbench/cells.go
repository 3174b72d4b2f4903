package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"time"

	"vce/internal/obs"
	"vce/internal/scenario"
	"vce/internal/scenario/store"
)

// cellWorkload runs one scenario cell back to back through
// scenario.RunContext: a closed loop with a single client. Every repetition
// uses the same spec, so every report must carry the same bytes.
type cellWorkload struct {
	// spec generates the cell's spec JSON from the workload seed.
	spec func(seed uint64) []byte
	// shape is the Policy.Place probe input that mirrors the cell's
	// placement rounds.
	shape placeShape
}

// stream-diurnal: the committed diurnal-steady.json world (64 workstations ×
// 8 slots, diurnal open-loop arrivals at 300/s ± 60 %, queue_limit 128,
// greedy-best-fit, no migration) cut to 30k tasks. The phase puts t=0 at the
// peak of the cycle, so the admission queue fills at once and stays at its
// limit: re-scoring the queue after every completion dominates.
var streamDiurnal = cellWorkload{
	spec: func(seed uint64) []byte {
		return []byte(fmt.Sprintf(`{
  "name": "stream-diurnal",
  "horizon_s": 3600,
  "machines": {"classes": [{"class": "workstation", "count": 64, "slots": 8, "speed": {"dist": "fixed", "value": 5}}], "bandwidth_mib_s": 8},
  "workload": {"tasks": 30000, "work": {"dist": "uniform", "min": 0.5, "max": 1.5},
    "arrivals": {"kind": "diurnal", "rate_per_s": 300, "amplitude": 0.6, "period_s": 3600, "phase_s": 900},
    "queue_limit": 128, "image_mib": 1},
  "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none"]},
  "runs": 1,
  "seed": %d
}`, specSeed(seed, "stream-diurnal")))
	},
	shape: placeShape{name: "stream", items: 128, machines: 64, slots: 8, fullFrac: 0.95},
}

// fleet-poisson: 10k single-class machines with 2 slots each, closed
// Poisson arrivals well under capacity, greedy-best-fit, no migration, an
// unbounded queue. The queue stays short, so per-placement cost is the
// per-round machine snapshot and the candidate scan over the whole fleet,
// and the 10k-machine world is rebuilt on every run.
var fleetPoisson = cellWorkload{
	spec: func(seed uint64) []byte {
		return []byte(fmt.Sprintf(`{
  "name": "fleet-poisson",
  "horizon_s": 3600,
  "machines": {"classes": [{"class": "workstation", "count": 10000, "slots": 2, "speed": {"dist": "uniform", "min": 1, "max": 2}}], "bandwidth_mib_s": 8},
  "workload": {"tasks": 4000, "work": {"dist": "uniform", "min": 50, "max": 150},
    "arrivals": {"kind": "poisson", "rate_per_s": 50}, "image_mib": 1},
  "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none"]},
  "runs": 1,
  "seed": %d
}`, specSeed(seed, "fleet-poisson")))
	},
	shape: placeShape{name: "fleet", items: 8, machines: 10000, slots: 2, fullFrac: 0.5},
}

// specSeed derives a spec's root seed from the workload seed.
func specSeed(seed uint64, name string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h)).Uint64() >> 11
}

// setupReps is how many times a cell workload's set-up is repeated; setup_s
// is the median. A cell's set-up is microseconds, so many repetitions cost
// nothing and steady the median.
const setupReps = 101

func (c cellWorkload) setup(seed uint64) (*scenario.Spec, error) {
	return scenario.Parse(c.spec(seed))
}

// timedSetup runs setup reps times and returns the median duration in
// seconds and the last result.
func timedSetup[T any](reps int, setup func() (T, error), teardown func(T)) (float64, T, error) {
	var v T
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		x, err := setup()
		ds = append(ds, time.Since(t0))
		if err != nil {
			return 0, v, fmt.Errorf("setup: %w", err)
		}
		if i < reps-1 && teardown != nil {
			teardown(x)
		}
		v = x
	}
	return median(ms(ds)) / 1000, v, nil
}

// cellPhase is one closed-loop sequence of cell runs.
type cellPhase struct {
	lat       []time.Duration // per RunContext call
	completed int             // completed simulated tasks, summed over calls
	report    *scenario.Report
	bytes     []byte // the report.json bytes every call must reproduce
}

// runCells calls RunContext until more reports false, checking that every
// report's bytes equal the first's.
func runCells(ctx context.Context, sp *scenario.Spec, opts scenario.Options, more func(n int, elapsed time.Duration) bool) (cellPhase, error) {
	var ph cellPhase
	var elapsed time.Duration
	for n := 0; n == 0 || more(n, elapsed); n++ {
		t0 := time.Now()
		rep, err := scenario.RunContext(ctx, sp, opts)
		d := time.Since(t0)
		if err != nil {
			return ph, fmt.Errorf("cell run %d: %w", n, err)
		}
		elapsed += d
		ph.lat = append(ph.lat, d)
		b, err := reportBytes(rep)
		if err != nil {
			return ph, err
		}
		if ph.bytes == nil {
			ph.bytes, ph.report = b, rep
		} else if !bytes.Equal(b, ph.bytes) {
			return ph, mismatchf("repeat-identity", "run %d of the same spec and seed produced different report bytes than run 0", n)
		}
		ph.completed += completedTasks(rep)
	}
	return ph, nil
}

// reportBytes encodes a report exactly as WriteArtifacts writes report.json.
func reportBytes(rep *scenario.Report) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	return buf.Bytes(), nil
}

func completedTasks(rep *scenario.Report) int {
	n := 0
	for _, c := range rep.Cells {
		for _, idx := range c.Runs {
			n += idx.Completed
		}
	}
	return n
}

// warmReplays is how many times the cell is replayed from a warm store.
const warmReplays = 31

// replayWarm seeds a result store with the cell's indexes under their
// CellKeys, then re-runs the same spec against it: the exact-resubmission
// path, which must simulate nothing and reproduce the cold bytes.
func replayWarm(ctx context.Context, sp *scenario.Spec, ph cellPhase, dir string) ([]time.Duration, error) {
	fs, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	insts := sp.Instances()
	for ci, cell := range ph.report.Cells {
		for run, idx := range cell.Runs {
			key, err := scenario.CellKey(insts[ci], run)
			if err != nil {
				return nil, err
			}
			if err := fs.Put(key, idx); err != nil {
				return nil, err
			}
		}
	}
	lat := make([]time.Duration, 0, warmReplays)
	for i := 0; i < warmReplays; i++ {
		t0 := time.Now()
		rep, err := scenario.RunContext(ctx, sp, scenario.Options{Cache: fs})
		lat = append(lat, time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("warm replay %d: %w", i, err)
		}
		b, err := reportBytes(rep)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, ph.bytes) {
			return nil, mismatchf("warm-identity", "warm replay %d produced different report bytes than the cold run", i)
		}
	}
	if st := fs.Stats(); st.Misses != 0 {
		return nil, mismatchf("warm-identity", "%d of the warm replays' cache lookups missed and simulated", st.Misses)
	}
	return lat, nil
}

func (c cellWorkload) measure(ctx context.Context, r *runner) (*outcome, error) {
	setupS, sp, err := timedSetup(setupReps, func() (*scenario.Spec, error) { return c.setup(r.seed) }, nil)
	if err != nil {
		return nil, err
	}
	rss := startRSS()
	cpu0 := cpuTime()
	ph, err := runCells(ctx, sp, scenario.Options{}, func(_ int, el time.Duration) bool { return el < r.seconds })
	cpu := cpuTime() - cpu0
	o := &outcome{}
	if rerr := rss.finish(o); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	warm, err := replayWarm(ctx, sp, ph, filepath.Join(r.dir, "warm-store"))
	if err != nil {
		return nil, err
	}
	if err := c.checkDefaultSeed(ctx, r, ph); err != nil {
		return nil, err
	}
	o.attempted = len(ph.lat) + len(warm)
	wall := sum(ph.lat).Seconds()
	lat := ms(ph.lat)
	o.set("setup_s", setupS, "s", setupReps)
	o.set("tasks_per_s", float64(ph.completed)/wall, "1/s", len(ph.lat))
	o.set("cpu_s_per_ktask", cpu.Seconds()/(float64(ph.completed)/1000), "s/ktask", len(ph.lat))
	o.set("report_ms_p50", median(lat), "ms", len(lat))
	o.note("cells: %d runs of %d completed tasks each; failed_pct 0 of %d attempted", len(ph.lat), ph.completed/len(ph.lat), o.attempted)
	o.note("report_ms_p95 %.3f ms over %d runs (host noise only: every run does the same work)", quantile(lat, 0.95), len(lat))
	o.note("warm_report_ms_p50 %.4f ms over %d replays from a warm store", median(ms(warm)), len(warm))
	return o, nil
}

// addRejection reports the share of offered tasks the arrival sources
// rejected at admission (Indexes.Rejected over the spec's task count, per
// run) across reps, and states the base.
func addRejection(o *outcome, reps []*scenario.Report) {
	offered, rejected, runs := 0, 0, 0
	for _, rep := range reps {
		for _, c := range rep.Cells {
			for _, idx := range c.Runs {
				offered += rep.Spec.Workload.Tasks
				rejected += idx.Rejected
				runs++
			}
		}
	}
	o.set("source.rejected_pct", 100*float64(rejected)/float64(max(offered, 1)), "%", runs)
	o.note("source.rejected_pct base: %d rejected of %d offered tasks over %d runs", rejected, offered, runs)
}

// checkDefaultSeed compares the cell's report at the recorded default seed
// with report_sha256 in workloads.json, re-running the cell when this run
// used another seed.
func (c cellWorkload) checkDefaultSeed(ctx context.Context, r *runner, ph cellPhase) error {
	b := ph.bytes
	if r.seed != r.cfg.DefaultSeed {
		sp, err := c.setup(r.cfg.DefaultSeed)
		if err != nil {
			return err
		}
		rep, err := scenario.RunContext(ctx, sp, scenario.Options{})
		if err != nil {
			return fmt.Errorf("default-seed run: %w", err)
		}
		if b, err = reportBytes(rep); err != nil {
			return err
		}
	}
	return checkSHA(r, b)
}

func (c cellWorkload) trace(ctx context.Context, r *runner) (*outcome, error) {
	sp, err := c.setup(r.seed)
	if err != nil {
		return nil, err
	}
	// One warm-up run, so that neither pass pays for first-use costs; then
	// an untraced reference for the overhead figure, half the run length.
	if _, err := runCells(ctx, sp, scenario.Options{}, func(int, time.Duration) bool { return false }); err != nil {
		return nil, err
	}
	cpu0 := cpuTime()
	ref, err := runCells(ctx, sp, scenario.Options{}, func(_ int, el time.Duration) bool { return el < r.seconds/2 })
	refCPU := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	// Traced pass: the same number of runs with telemetry and a CPU profile.
	rec := obs.New()
	tp := startTraced(filepath.Join(r.out, "cpu-"+r.name+".pprof"))
	if tp.err != nil {
		return nil, tp.err
	}
	cpu0 = cpuTime()
	tr, err := runCells(ctx, sp, scenario.Options{Telemetry: rec}, func(n int, _ time.Duration) bool { return n < len(ref.lat) })
	trCPU := cpuTime() - cpu0
	prof, perr := tp.stop(ctx, tr.completed)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	if !bytes.Equal(tr.bytes, ref.bytes) {
		return nil, mismatchf("telemetry-identity", "the traced run's report bytes differ from the untraced run's")
	}
	o := &outcome{attempted: len(ref.lat) + len(tr.lat), artifact: map[string]any{}}
	prof.addTo(o)
	o.set("trace.overhead_pct", 100*(trCPU.Seconds()/float64(len(tr.lat))/(refCPU.Seconds()/float64(len(ref.lat)))-1), "%", len(tr.lat))
	addTelemetry(o, rec.Snapshot())
	addRejection(o, []*scenario.Report{tr.report})
	if err := runProbes(ctx, r, o, c.shape, []*scenario.Report{tr.report}); err != nil {
		return nil, err
	}
	// This workload never touches the daemon; the service-side layer
	// metrics come from a short service-mix probe instead.
	if err := serviceProbe(ctx, r, o); err != nil {
		return nil, err
	}
	return o, nil
}
