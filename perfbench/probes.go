package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vce/internal/arch"
	"vce/internal/netsim"
	"vce/internal/scenario"
	"vce/internal/scenario/store"
	"vce/internal/sched"
	"vce/internal/taskgraph"
)

// The probes time calls into one layer's public functions on inputs shaped
// like the workload's, from the benchmark's own code. Each checks the result
// of every call it times: a probe never times a broken call.

// placeShape describes Policy.Place probe inputs: items queued items, each
// admissible on every one of machines machines with slots slots; a fullFrac
// share of the machines has no free slot, the rest 1..slots free.
type placeShape struct {
	name                   string
	items, machines, slots int
	fullFrac               float64
}

// probeCalls bounds each policy's timed Place calls; probeBudget bounds
// their total time per policy.
const (
	probeCalls  = 400
	probeBudget = 300 * time.Millisecond
)

type placeInput struct {
	items    []sched.Item
	machines []sched.MachineState
}

func (s placeShape) input(rng *rand.Rand) placeInput {
	names := make([]string, s.machines)
	ids := make([]int, s.machines)
	ms := make([]sched.MachineState, s.machines)
	for i := range ms {
		names[i] = fmt.Sprintf("m%05d", i)
		ids[i] = i
		free := 0
		if rng.Float64() >= s.fullFrac {
			free = 1 + rng.IntN(s.slots)
		}
		ms[i] = sched.MachineState{
			Machine: arch.Machine{Name: names[i], Class: arch.Workstation, Speed: 1 + rng.Float64(), OS: "unix"},
			Load:    float64(s.slots-free) / float64(s.slots) * 0.5,
			Slots:   free,
			Index:   i,
		}
	}
	items := make([]sched.Item, s.items)
	for i := range items {
		items[i] = sched.Item{
			Task:         taskgraph.TaskID(fmt.Sprintf("t%04d", i)),
			Candidates:   names,
			CandidateIDs: ids,
			Work:         0.5 + rng.Float64(),
			HomeSite:     1 + i%2,
		}
	}
	return placeInput{items: items, machines: ms}
}

// checkPlace verifies one Place call: every assignment names a known machine
// with a free slot left for it and an item that was offered, no item is
// placed twice, and assigned + waiting + dropped items account
// for every item offered.
func checkPlace(in placeInput, as []sched.Assignment, waiting, dropped []sched.Item) error {
	free := make(map[string]int, len(in.machines))
	for _, m := range in.machines {
		free[m.Machine.Name] = m.Slots
	}
	offered := make(map[taskgraph.TaskID]bool, len(in.items))
	for _, it := range in.items {
		offered[it.Task] = true
	}
	placed := map[taskgraph.TaskID]bool{}
	for _, a := range as {
		n, ok := free[a.Machine]
		if !ok {
			return fmt.Errorf("assignment to unknown machine %q", a.Machine)
		}
		if n == 0 {
			return fmt.Errorf("machine %s assigned more tasks than it had free slots", a.Machine)
		}
		free[a.Machine] = n - 1
		if !offered[a.Task] || placed[a.Task] {
			return fmt.Errorf("task %s placed twice or never offered", a.Task)
		}
		placed[a.Task] = true
	}
	if len(as)+len(waiting)+len(dropped) != len(in.items) {
		return fmt.Errorf("%d assigned + %d waiting + %d dropped != %d offered", len(as), len(waiting), len(dropped), len(in.items))
	}
	return nil
}

// placeProbe times Policy.Place for the three placement policies on the
// shape and returns the per-call times, the per-policy medians, and the
// ratio of items offered to assignments returned.
func placeProbe(shape placeShape, seed uint64) (calls []time.Duration, byPolicy map[string]float64, scoredPerAssign float64, err error) {
	rng := rand.New(rand.NewPCG(seed, 0x91ace))
	in := shape.input(rng)
	siteOf := make([]int, shape.machines)
	for i := range siteOf {
		siteOf[i] = i % 2
	}
	loc := sched.NewLocality()
	loc.SetTopology(siteOf, [][]float64{{0, 5}, {5, 0}})
	policies := []sched.Policy{sched.NewGreedyBestFit(), sched.NewUtilizationFirst(), loc}
	byPolicy = map[string]float64{}
	work := make([]sched.MachineState, len(in.machines))
	var offered, assigned int
	for _, p := range policies {
		var ds []time.Duration
		var spent time.Duration
		for len(ds) < probeCalls && spent < probeBudget {
			copy(work, in.machines) // Place consumes the snapshot's slots
			t0 := time.Now()
			as, waiting := p.Place(in.items, work)
			d := time.Since(t0)
			var dropped []sched.Item
			if p == loc {
				dropped = loc.Dropped()
			}
			if err := checkPlace(in, as, waiting, dropped); err != nil {
				return nil, nil, 0, mismatchf("place-probe", "%s on the %s shape: %v", p.Name(), shape.name, err)
			}
			ds = append(ds, d)
			spent += d
			offered += len(in.items)
			assigned += len(as)
		}
		byPolicy[p.Name()] = median(us(ds))
		calls = append(calls, ds...)
	}
	if assigned == 0 {
		return nil, nil, 0, mismatchf("place-probe", "no policy assigned anything on the %s shape", shape.name)
	}
	return calls, byPolicy, float64(offered) / float64(assigned), nil
}

func us(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

// netsimProbe times Model.TransferTime through a resolver with the two-site
// topology of examples/scenarios/dag-locality.json (6 campus workstations,
// 2 center hosts; 1 ms / 8 MiB/s inside a site, 25 ms / 0.75 MiB/s between
// sites) and checks every result against latency + size/bandwidth.
func netsimProbe() (nsPerCall float64, err error) {
	const mib = 1 << 20
	intra := netsim.Link{Latency: time.Millisecond, Bandwidth: 8 * mib}
	inter := netsim.Link{Latency: 25 * time.Millisecond, Bandwidth: 0.75 * mib}
	hosts := []string{"ws0", "ws1", "ws2", "ws3", "ws4", "ws5", "mimd0", "mimd1"}
	site := map[string]int{}
	for i, h := range hosts {
		site[h] = i / 6
	}
	m := netsim.New(netsim.Link{Latency: time.Millisecond, Bandwidth: 4 * mib})
	m.SetResolver(func(a, b string) (netsim.Link, bool) {
		sa, oka := site[a]
		sb, okb := site[b]
		if !oka || !okb {
			return netsim.Link{}, false
		}
		if sa == sb {
			return intra, true
		}
		return inter, true
	})
	const size = 4 * mib
	want := func(l netsim.Link) time.Duration {
		return l.Latency + time.Duration(float64(size)/l.Bandwidth*float64(time.Second))
	}
	const rounds = 2000
	var batches []float64
	for b := 0; b < 9; b++ {
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			a, c := hosts[i%len(hosts)], hosts[(i*5+3)%len(hosts)]
			d, err := m.TransferTime(a, c, size)
			if err != nil {
				return 0, mismatchf("netsim-probe", "TransferTime(%s, %s): %v", a, c, err)
			}
			var exp time.Duration
			switch {
			case a == c:
			case site[a] == site[c]:
				exp = want(intra)
			default:
				exp = want(inter)
			}
			if d != exp {
				return 0, mismatchf("netsim-probe", "TransferTime(%s, %s) = %v, want %v", a, c, d, exp)
			}
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/rounds)
	}
	return median(batches), nil
}

// timedStore wraps store.FS as the scenario.Store of a sweep, timing every
// Get and Put and checking that each hit returns exactly what was Put.
type timedStore struct {
	fs *store.FS

	mu       sync.Mutex
	get, put []time.Duration
	stored   map[string]scenario.Indexes
	err      error
}

func (t *timedStore) Get(key string) (scenario.Indexes, bool, error) {
	t0 := time.Now()
	idx, ok, err := t.fs.Get(key)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if ok {
		t.get = append(t.get, d)
		if want, had := t.stored[key]; !had || want != idx {
			t.err = mismatchf("store-probe", "Get(%s) returned indexes that differ from the ones Put", key[:12])
		}
	}
	return idx, ok, err
}

func (t *timedStore) Put(key string, idx scenario.Indexes) error {
	t0 := time.Now()
	err := t.fs.Put(key, idx)
	d := time.Since(t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		t.err = fmt.Errorf("store probe Put: %w", err)
		return err
	}
	t.put = append(t.put, d)
	t.stored[key] = idx
	return nil
}

// storeProbe runs one small sweep cold and then warm against a timed
// store.FS passed as Options.Cache: every cell Puts once and then Gets once.
func storeProbe(ctx context.Context, spec []byte, dir string) (get, put []time.Duration, err error) {
	fs, err := store.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	sp, err := scenario.Parse(spec)
	if err != nil {
		return nil, nil, err
	}
	ts := &timedStore{fs: fs, stored: map[string]scenario.Indexes{}}
	var reps [2][]byte
	for i := range reps {
		rep, err := scenario.RunContext(ctx, sp, scenario.Options{Cache: ts})
		if err != nil {
			return nil, nil, fmt.Errorf("store probe sweep: %w", err)
		}
		if reps[i], err = reportBytes(rep); err != nil {
			return nil, nil, err
		}
	}
	if ts.err != nil {
		return nil, nil, ts.err
	}
	grid := len(sp.Instances()) * sp.Runs
	if len(ts.put) != grid || len(ts.get) != grid {
		return nil, nil, mismatchf("store-probe", "%d puts and %d hits for a %d-cell grid", len(ts.put), len(ts.get), grid)
	}
	if !bytes.Equal(reps[0], reps[1]) {
		return nil, nil, mismatchf("store-probe", "the warm sweep's report differs from the cold one")
	}
	return ts.get, ts.put, nil
}

// artifactReps is how many times each report's artifacts are written.
const artifactReps = 5

// artifactsProbe times Report.WriteArtifacts and checks that it writes the
// seven artifacts and that report.json holds exactly the report's bytes.
func artifactsProbe(reps []*scenario.Report, dir string) ([]time.Duration, error) {
	var ds []time.Duration
	for i, rep := range reps {
		want, err := reportBytes(rep)
		if err != nil {
			return nil, err
		}
		for k := 0; k < artifactReps; k++ {
			d := filepath.Join(dir, fmt.Sprintf("artifacts-%d-%d", i, k))
			t0 := time.Now()
			written, err := rep.WriteArtifacts(d)
			ds = append(ds, time.Since(t0))
			if err != nil {
				return nil, fmt.Errorf("WriteArtifacts: %w", err)
			}
			got, err := os.ReadFile(filepath.Join(d, scenario.ReportFile))
			if err != nil {
				return nil, err
			}
			if len(written) != 7 || !bytes.Equal(got, want) {
				return nil, mismatchf("artifacts-probe", "WriteArtifacts wrote %d files and a report.json that differs from the report", len(written))
			}
			if err := os.RemoveAll(d); err != nil {
				return nil, err
			}
		}
	}
	return ds, nil
}

// runProbes runs the layer probes every traced run shares and adds their
// metrics: sched on the workload's shape, netsim, store and analyze.
func runProbes(ctx context.Context, r *runner, o *outcome, shape placeShape, reps []*scenario.Report) error {
	calls, byPolicy, ratio, err := placeProbe(shape, r.seed)
	if err != nil {
		return err
	}
	o.set("sched.place_us", median(us(calls)), "us", len(calls))
	o.set("sched.scored_per_assign", ratio, "ratio", len(calls))
	o.artifact["place_us_by_policy"] = byPolicy
	o.note("sched.place_us shape: %s, %d items x %d machines", shape.name, shape.items, shape.machines)

	ns, err := netsimProbe()
	if err != nil {
		return err
	}
	o.set("netsim.transfer_ns", ns, "ns", 9)

	get, put, err := storeProbe(ctx, specTemplates[0], filepath.Join(r.dir, "store-probe"))
	if err != nil {
		return err
	}
	o.set("store.get_us_p50", median(us(get)), "us", len(get))
	o.set("store.put_us_p50", median(us(put)), "us", len(put))

	art, err := artifactsProbe(reps, r.dir)
	if err != nil {
		return err
	}
	o.set("analyze.artifacts_ms", median(ms(art)), "ms", len(art))
	return nil
}
