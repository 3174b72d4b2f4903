package main

import (
	"bufio"
	"bytes"
	"context"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"vce/internal/obs"
	"vce/internal/scenario"
	"vce/internal/scenario/service"
)

// The service-mix submissions are drawn from copies of four committed small
// specs (examples/scenarios), kept here so that an edit to the examples
// cannot change the benchmark's inputs.
//
//go:embed specs
var specFS embed.FS

var specNames = []string{"hetero-baseline", "owner-churn", "faulty-fleet", "dag-locality"}

var specTemplates = func() [][]byte {
	out := make([][]byte, len(specNames))
	for i, n := range specNames {
		b, err := specFS.ReadFile("specs/" + n + ".json")
		if err != nil {
			panic(err) // embedded at build time; absent only if the build is broken
		}
		out[i] = b
	}
	return out
}()

// specBody returns template k with its root seed replaced and one run per
// policy cell, which keeps a cold submission to tens of milliseconds so a
// run holds a few hundred of them.
func specBody(k int, seed uint64) []byte {
	dec := json.NewDecoder(bytes.NewReader(specTemplates[k]))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		panic(err) // embedded at build time
	}
	m["seed"] = seed
	m["runs"] = 1
	b, err := json.Marshal(m)
	if err != nil {
		panic(err)
	}
	return b
}

// submission is one planned POST /sweeps.
type submission struct {
	body []byte
	spec int // index into specNames
	// orig is the fresh submission a warm one resubmits exactly; -1 for a
	// fresh submission.
	orig int
}

// warmGap is how many positions before a warm resubmission its original
// must be, so that at the nominal rate the original has finished and the
// resubmission replays from the store instead of queueing behind it.
const warmGap = 16

// planSubmissions makes n submissions for one phase. Fresh submissions
// cycle through the four specs in a seeded order, each with a fresh seed:
// they simulate every cell. From warmGap on, each submission is with
// probability 1/2 an exact resubmission of an earlier fresh one: it replays
// every cell from the store and simulates nothing.
func planSubmissions(seed uint64, phase string, n int) []submission {
	rng := rand.New(rand.NewPCG(seed, specSeed(seed, phase)))
	subs := make([]submission, 0, n)
	var fresh []int
	var order []int
	for i := 0; i < n; i++ {
		if i >= warmGap && rng.IntN(2) == 0 {
			var cands []int
			for _, j := range fresh {
				if j <= i-warmGap {
					cands = append(cands, j)
				}
			}
			if len(cands) > 0 {
				j := cands[rng.IntN(len(cands))]
				subs = append(subs, submission{body: subs[j].body, spec: subs[j].spec, orig: j})
				continue
			}
		}
		if len(order) == 0 {
			order = rng.Perm(len(specNames))
		}
		k := order[0]
		order = order[1:]
		fresh = append(fresh, i)
		subs = append(subs, submission{body: specBody(k, rng.Uint64()>>11), spec: k, orig: -1})
	}
	return subs
}

// client speaks the daemon's HTTP API with at most conns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

// reply is one completed submission.
type reply struct {
	report      []byte
	post, fetch time.Duration
}

func (c *client) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// submit POSTs a spec, follows the sweep's NDJSON event stream to its
// terminal event, and GETs the finished report.
func (c *client) submit(ctx context.Context, body []byte) (reply, error) {
	var rp reply
	t0 := time.Now()
	data, err := c.call(ctx, http.MethodPost, "/sweeps", body, http.StatusAccepted)
	if err != nil {
		return rp, err
	}
	rp.post = time.Since(t0)
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return rp, fmt.Errorf("POST /sweeps reply: %w", err)
	}
	if state, err := c.wait(ctx, st.ID); err != nil {
		return rp, err
	} else if state != service.StateDone {
		return rp, fmt.Errorf("sweep %s ended %s", st.ID, state)
	}
	t1 := time.Now()
	rp.report, err = c.call(ctx, http.MethodGet, "/sweeps/"+st.ID+"/report", nil, http.StatusOK)
	rp.fetch = time.Since(t1)
	return rp, err
}

// wait reads a sweep's event stream until it ends and returns the type of
// the last event: the sweep's terminal state.
func (c *client) wait(ctx context.Context, id string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/sweeps/"+id+"/events", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /sweeps/%s/events: HTTP %d", id, resp.StatusCode)
	}
	last := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev service.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return "", fmt.Errorf("sweep %s event: %w", id, err)
		}
		last = ev.Type
	}
	return last, sc.Err()
}

// daemon is an in-process sweep service behind an httptest server.
type daemon struct {
	sv  *service.Server
	ts  *httptest.Server
	cl  *client
	dir string
}

func startDaemon(parent string, conns int) (*daemon, error) {
	dir, err := os.MkdirTemp(parent, "daemon-")
	if err != nil {
		return nil, err
	}
	sv, err := service.New(service.Config{CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(sv)
	return &daemon{sv: sv, ts: ts, cl: newClient(ts.URL, conns), dir: dir}, nil
}

func (d *daemon) close() {
	d.cl.hc.CloseIdleConnections()
	d.ts.Close()
	d.sv.Close()
	os.RemoveAll(d.dir)
}

// phase is one open-loop run of submissions against the daemon.
type phase struct {
	subs       []submission
	samples    []sample
	replies    []reply
	failed     int
	backlogMax int
	tasks      int // completed simulated tasks in the fetched reports
}

// runPhase submits subs at rate per second from conns senders. With
// watchBacklog it also samples the daemon's queued+running sweep count.
func (d *daemon) runPhase(ctx context.Context, subs []submission, rate float64, conns int, watchBacklog bool) (*phase, error) {
	ph := &phase{subs: subs, replies: make([]reply, len(subs))}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if watchBacklog {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Stats walks the whole store to count entries, so poll
			// sparingly: the walk is tracing cost, not workload.
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					st := d.sv.Stats()
					ph.backlogMax = max(ph.backlogMax, st.Sweeps[service.StateQueued]+st.Sweeps[service.StateRunning])
				}
			}
		}()
	}
	ph.samples = openLoop(ctx, schedule(len(subs), rate), conns, func(ctx context.Context, i int) error {
		rp, err := d.cl.submit(ctx, subs[i].body)
		ph.replies[i] = rp
		return err
	})
	close(stop)
	wg.Wait()
	return ph, ph.verify()
}

// verify counts failures and tasks and checks that every warm
// resubmission's report is byte-identical to its original's.
func (ph *phase) verify() error {
	tasks := map[int]int{}
	for i, s := range ph.samples {
		if s.err != nil {
			ph.failed++
			continue
		}
		src := i
		if o := ph.subs[i].orig; o >= 0 {
			src = o
			if ph.samples[o].err == nil && !bytes.Equal(ph.replies[i].report, ph.replies[o].report) {
				return mismatchf("warm-identity", "resubmission %d's report differs from its original %d's", i, o)
			}
		}
		n, ok := tasks[src]
		if !ok {
			var rep scenario.Report
			if err := json.Unmarshal(ph.replies[i].report, &rep); err != nil {
				return mismatchf("report-decode", "submission %d: %v", i, err)
			}
			n = completedTasks(&rep)
			tasks[src] = n
		}
		ph.tasks += n
	}
	return nil
}

// latencies splits completed submissions' latencies (ms from due time to
// report fetched) into fresh and warm ones.
func (ph *phase) latencies() (fresh, warm, all []float64) {
	for i, s := range ph.samples {
		if s.err != nil {
			continue
		}
		l := float64(s.latency()) / float64(time.Millisecond)
		if ph.subs[i].orig < 0 {
			fresh = append(fresh, l)
		} else {
			warm = append(warm, l)
		}
		all = append(all, l)
	}
	return fresh, warm, all
}

// p95Windows is how many consecutive windows of the schedule
// windowedP95 splits a phase into.
const p95Windows = 5

// windowedP95 is the median over p95Windows consecutive windows of the
// schedule of each window's fresh-submission p95 latency (ms). A stall of
// the shared host lands in one window and moves the median little, where
// it would move the p95 of the whole phase.
func (ph *phase) windowedP95() float64 {
	var ws [p95Windows][]float64
	for i, s := range ph.samples {
		if s.err == nil && ph.subs[i].orig < 0 {
			w := i * p95Windows / len(ph.samples)
			ws[w] = append(ws[w], float64(s.latency())/float64(time.Millisecond))
		}
	}
	p := make([]float64, 0, p95Windows)
	for _, w := range ws {
		if len(w) > 0 {
			p = append(p, quantile(w, 0.95))
		}
	}
	return median(p)
}

func (ph *phase) wall() time.Duration {
	var end time.Duration
	for _, s := range ph.samples {
		end = max(end, s.done)
	}
	return end
}

type serviceMix struct{}

// smallShape mirrors the service specs' placement rounds: a few dozen
// queued tasks over a handful of machines.
var smallShape = placeShape{name: "small", items: 60, machines: 9, slots: 2, fullFrac: 0.3}

// serviceSetupReps is how many times service-mix's set-up is repeated;
// setup_s is the median.
const serviceSetupReps = 7

// setup plans the phase's submissions, parses and validates every distinct
// spec, and starts a daemon on a fresh store.
func (serviceMix) setup(r *runner, phaseName string, n int) (*daemon, []submission, error) {
	subs := planSubmissions(r.seed, phaseName, n)
	for _, s := range subs {
		if s.orig < 0 {
			if _, err := scenario.Parse(s.body); err != nil {
				return nil, nil, err
			}
		}
	}
	d, err := startDaemon(r.dir, runtime.NumCPU())
	return d, subs, err
}

func (sm serviceMix) measure(ctx context.Context, r *runner) (*outcome, error) {
	wc := r.cfg.Workloads["service-mix"]
	conns := runtime.NumCPU()
	// Three quarters of the run measure latency at the nominal rate; the
	// rest climbs the rate ladder.
	nominal := r.seconds * 3 / 4
	n := int(wc.NominalRatePerS * nominal.Seconds())
	var subs []submission
	setupS, d, err := timedSetup(serviceSetupReps, func() (*daemon, error) {
		d, s, err := sm.setup(r, "nominal", n)
		subs = s
		return d, err
	}, (*daemon).close)
	if err != nil {
		return nil, err
	}
	defer d.close()
	rss := startRSS()
	u0, s0 := cpuSplit()
	ph, err := d.runPhase(ctx, subs, wc.NominalRatePerS, conns, false)
	u1, s1 := cpuSplit()
	cpu := u1 - u0 + s1 - s0
	o := &outcome{}
	if rerr := rss.finish(o); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	if _, err := checkAgainstInProcess(ctx, r, ph, nil); err != nil {
		return nil, err
	}
	maxOK, rungs, attempted, failed, err := sm.ladder(ctx, r, d, r.seconds-nominal)
	if err != nil {
		return nil, err
	}
	if err := checkServiceDefaultSeed(ctx, r); err != nil {
		return nil, err
	}
	fresh, warm, _ := ph.latencies()
	if len(fresh) == 0 || len(warm) == 0 || ph.tasks == 0 {
		return nil, fmt.Errorf("nominal phase completed %d fresh and %d warm submissions", len(fresh), len(warm))
	}
	o.attempted, o.failed = len(subs)+attempted, ph.failed+failed
	o.set("setup_s", setupS, "s", serviceSetupReps)
	o.set("tasks_per_s", float64(ph.tasks)/ph.wall().Seconds(), "1/s", len(subs)-ph.failed)
	o.set("cpu_s_per_ktask", cpu.Seconds()/(float64(ph.tasks)/1000), "s/ktask", len(subs)-ph.failed)
	o.set("report_ms_p50", median(fresh), "ms", len(fresh))
	lag := lagsMS(ph)
	o.note("nominal: %d submissions at %g/s (%d fresh, %d warm), %d connections; gen lag p99 %.3f ms; failed_pct %.2f of %d attempted",
		len(subs), wc.NominalRatePerS, len(fresh), len(warm), conns, quantile(lag, 0.99), 100*float64(o.failed)/float64(o.attempted), o.attempted)
	o.note("rate ladder (limit p95 <= %g ms): %s", wc.LatencyLimitMS, strings.Join(rungs, ", "))
	o.note("report_ms_p95 %.3f ms: median over %d windows of the fresh-submission p95 (n=%d)", ph.windowedP95(), p95Windows, len(fresh))
	o.note("warm_report_ms_p50 %.3f ms over %d resubmissions", median(warm), len(warm))
	o.note("max_ok_rate_per_s %g submissions/s", maxOK)
	o.note("nominal phase CPU: user %.2f s, system %.2f s", (u1 - u0).Seconds(), (s1 - s0).Seconds())
	o.note("fresh latency ms: p90 %.1f p95 %.1f p99 %.1f max %.1f over the whole phase", quantile(fresh, 0.9), quantile(fresh, 0.95), quantile(fresh, 0.99), quantile(fresh, 1))
	return o, nil
}

func lagsMS(ph *phase) []float64 {
	var lag []float64
	for _, s := range ph.samples {
		lag = append(lag, float64(s.lag())/float64(time.Millisecond))
	}
	return lag
}

// ladder runs the fixed rate ladder on the warm daemon, an equal share of
// budget per rung, and returns the highest rate at which p95 latency stays
// under the latency limit and the backlog does not grow (p95 of the last
// quarter of the rung also under the limit). It stops at the first rung
// that misses.
func (serviceMix) ladder(ctx context.Context, r *runner, d *daemon, budget time.Duration) (maxOK float64, rungs []string, attempted, failed int, err error) {
	wc := r.cfg.Workloads["service-mix"]
	per := budget / time.Duration(len(wc.RateLadderPerS))
	for _, rate := range wc.RateLadderPerS {
		subs := planSubmissions(r.seed, fmt.Sprintf("ladder-%g", rate), int(rate*per.Seconds()))
		ph, err := d.runPhase(ctx, subs, rate, runtime.NumCPU(), false)
		if err != nil {
			return 0, nil, 0, 0, err
		}
		attempted += len(subs)
		failed += ph.failed
		_, _, all := ph.latencies()
		p95 := quantile(all, 0.95)
		tail := quantile(all[len(all)*3/4:], 0.95)
		ok := ph.failed == 0 && p95 <= wc.LatencyLimitMS && tail <= wc.LatencyLimitMS
		rungs = append(rungs, fmt.Sprintf("%g/s p95 %.1f ms tail %.1f ms n=%d ok=%v", rate, p95, tail, len(all), ok))
		if !ok {
			break
		}
		maxOK = rate
	}
	return maxOK, rungs, attempted, failed, nil
}

// checkAgainstInProcess re-runs a seeded sample of the phase's fresh
// submissions through scenario.RunContext in-process — one per spec where
// the phase has one — and requires the daemon's report bytes to match. It
// returns the in-process reports and passes rec (may be nil) as Telemetry.
func checkAgainstInProcess(ctx context.Context, r *runner, ph *phase, rec *obs.Recorder) ([]*scenario.Report, error) {
	rng := rand.New(rand.NewPCG(r.seed, 0x5a3b1e))
	byspec := make([][]int, len(specNames))
	for i, s := range ph.subs {
		if s.orig < 0 && ph.samples[i].err == nil {
			byspec[s.spec] = append(byspec[s.spec], i)
		}
	}
	var reps []*scenario.Report
	for _, idxs := range byspec {
		if len(idxs) == 0 {
			continue
		}
		i := idxs[rng.IntN(len(idxs))]
		sp, err := scenario.Parse(ph.subs[i].body)
		if err != nil {
			return nil, err
		}
		rep, err := scenario.RunContext(ctx, sp, scenario.Options{Telemetry: rec})
		if err != nil {
			return nil, fmt.Errorf("in-process run of submission %d: %w", i, err)
		}
		b, err := reportBytes(rep)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(b, ph.replies[i].report) {
			return nil, mismatchf("daemon-vs-inprocess", "submission %d (%s): the daemon's report differs from an in-process RunContext of the same spec", i, specNames[ph.subs[i].spec])
		}
		reps = append(reps, rep)
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("no fresh submission completed")
	}
	return reps, nil
}

// checkServiceDefaultSeed runs the four specs with their default-seed root
// seeds in-process and compares the hash of their concatenated reports with
// the recorded one.
func checkServiceDefaultSeed(ctx context.Context, r *runner) error {
	var all []byte
	for k, n := range specNames {
		sp, err := scenario.Parse(specBody(k, specSeed(r.cfg.DefaultSeed, n)))
		if err != nil {
			return err
		}
		rep, err := scenario.RunContext(ctx, sp, scenario.Options{})
		if err != nil {
			return fmt.Errorf("default-seed run of %s: %w", n, err)
		}
		b, err := reportBytes(rep)
		if err != nil {
			return err
		}
		all = append(all, b...)
	}
	return checkSHA(r, all)
}

// addServiceLayer reports the service-side layer metrics of a phase.
func addServiceLayer(o *outcome, d *daemon, ph *phase, hits0, misses0 uint64) {
	var post, fetch []time.Duration
	for i, s := range ph.samples {
		if s.err == nil {
			post = append(post, ph.replies[i].post)
			fetch = append(fetch, ph.replies[i].fetch)
		}
	}
	o.set("service.post_ms_p50", median(ms(post)), "ms", len(post))
	o.set("service.fetch_ms_p50", median(ms(fetch)), "ms", len(fetch))
	o.set("service.backlog_max", float64(ph.backlogMax), "count", len(ph.samples))
	st := d.sv.Cache().Stats()
	hits, misses := st.Hits-hits0, st.Misses-misses0
	o.set("store.hit_pct", 100*float64(hits)/float64(max(hits+misses, 1)), "%", int(hits+misses))
	lag := lagsMS(ph)
	o.set("gen.lag_ms_p99", quantile(lag, 0.99), "ms", len(lag))
}

// serviceProbe runs a short service-mix phase at the nominal rate on a
// fresh daemon, for the traced runs of workloads that never touch the
// service.
func serviceProbe(ctx context.Context, r *runner, o *outcome) error {
	wc := r.cfg.Workloads["service-mix"]
	d, subs, err := serviceMix{}.setup(r, "probe", int(wc.NominalRatePerS*1.5))
	if err != nil {
		return err
	}
	defer d.close()
	ph, err := d.runPhase(ctx, subs, wc.NominalRatePerS, runtime.NumCPU(), true)
	if err != nil {
		return err
	}
	addServiceLayer(o, d, ph, 0, 0)
	o.note("service.* and store.hit_pct: from a %d-submission service-mix probe at %g/s", len(subs), wc.NominalRatePerS)
	return nil
}

func (sm serviceMix) trace(ctx context.Context, r *runner) (*outcome, error) {
	wc := r.cfg.Workloads["service-mix"]
	conns := runtime.NumCPU()
	n := int(wc.NominalRatePerS * (r.seconds / 2).Seconds())
	d, subs, err := sm.setup(r, "nominal", n)
	if err != nil {
		return nil, err
	}
	defer d.close()
	// Untraced reference at the nominal rate, then a traced phase of the
	// same length and rate with its own fresh seeds. Open-loop wall time is
	// fixed by the schedule, so the overhead compares CPU per submission.
	cpu0 := cpuTime()
	ref, err := d.runPhase(ctx, subs, wc.NominalRatePerS, conns, false)
	refCPU := cpuTime() - cpu0
	if err != nil {
		return nil, err
	}
	tsubs := planSubmissions(r.seed, "traced", n)
	st0 := d.sv.Cache().Stats()
	tp := startTraced(filepath.Join(r.out, "cpu-"+r.name+".pprof"))
	if tp.err != nil {
		return nil, tp.err
	}
	cpu0 = cpuTime()
	tr, err := d.runPhase(ctx, tsubs, wc.NominalRatePerS, conns, true)
	trCPU := cpuTime() - cpu0
	prof, perr := tp.stop(ctx, tr.tasks)
	if err != nil {
		return nil, err
	}
	if perr != nil {
		return nil, perr
	}
	o := &outcome{attempted: len(subs) + len(tsubs), failed: ref.failed + tr.failed, artifact: map[string]any{}}
	prof.addTo(o)
	o.set("trace.overhead_pct", 100*(trCPU.Seconds()/refCPU.Seconds()-1), "%", len(tsubs))
	addServiceLayer(o, d, tr, st0.Hits, st0.Misses)
	// The daemon takes no Telemetry; the executor and kernel figures come
	// from the in-process re-runs that check the daemon's reports.
	rec := obs.New()
	reps, err := checkAgainstInProcess(ctx, r, tr, rec)
	if err != nil {
		return nil, err
	}
	addTelemetry(o, rec.Snapshot())
	addRejection(o, reps)
	if err := runProbes(ctx, r, o, smallShape, reps); err != nil {
		return nil, err
	}
	return o, nil
}
