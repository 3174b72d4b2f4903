package scenario

import (
	"context"
	"fmt"
	"strings"
	"time"

	"vce/internal/compilemgr"
	"vce/internal/loadbalance"
	"vce/internal/metrics"
	"vce/internal/migrate"
	"vce/internal/netsim"
	"vce/internal/obs"
	"vce/internal/rng"
	"vce/internal/sched"
	"vce/internal/sim"
	"vce/internal/taskgraph"
	"vce/internal/vtime"
)

// Indexes are the comparison indexes of one run: what the analyzer
// aggregates across seeds.
type Indexes struct {
	// MakespanS is the completion time of the last finished task (seconds);
	// the horizon if nothing finished.
	MakespanS float64 `json:"makespan_s"`
	// ThroughputPerH is completed tasks per simulated hour.
	ThroughputPerH float64 `json:"throughput_per_h"`
	// MeanCompletionS averages completion instants of finished tasks.
	MeanCompletionS float64 `json:"mean_completion_s"`
	// UtilizationPct is the machine-mean time-weighted fraction of
	// capacity spent on VCE work, in percent.
	UtilizationPct float64 `json:"utilization_pct"`
	// Migrations counts successful task migrations.
	Migrations int64 `json:"migrations"`
	// Suspensions counts suspension events (Stealth transitions or
	// migration fallbacks).
	Suspensions int64 `json:"suspensions"`
	// Failed counts task incarnations killed by machine failures.
	Failed int64 `json:"failed"`
	// Rejected counts tasks that never ran: bounded-queue admission
	// refusals, arrivals past the horizon, and tasks never placed.
	Rejected int `json:"rejected"`
	// Completed counts finished tasks.
	Completed int `json:"completed"`
	// SlowdownP50 and SlowdownP99 are steady-state slowdown quantiles:
	// (finish − arrival) / (work at speed 1.0), from the run's fixed-shape
	// quantile sketch (see StreamingIndexes).
	SlowdownP50 float64 `json:"slowdown_p50"`
	SlowdownP99 float64 `json:"slowdown_p99"`
	// QueueDepthMean is the time-weighted mean waiting-queue depth over the
	// run; QueueDepthMax is the largest settled backlog observed.
	QueueDepthMean float64 `json:"queue_depth_mean"`
	QueueDepthMax  float64 `json:"queue_depth_max"`
	// RejectRatePct is Rejected as a percentage of the offered tasks.
	RejectRatePct float64 `json:"reject_rate_pct"`
	// ForwardedPct is the percentage of data-affine task placements (DAG
	// tasks with completed parents, under a site topology) whose first
	// placement landed off the site holding their dependency data.
	ForwardedPct float64 `json:"forwarded_pct"`
	// XferWaitS totals the seconds tasks spent staging dependency data
	// across the network before starting.
	XferWaitS float64 `json:"xfer_wait_s"`
	// CriticalPathStretch is MakespanS over the workload DAG's ideal
	// critical path (unit speed, free transfers); zero for independent
	// workloads.
	CriticalPathStretch float64 `json:"critical_path_stretch"`
}

// derivedStreams builds the per-run random streams. Policy identity is
// deliberately absent from the derivation: every cell of the matrix sees the
// same generated world in run k, so differences in indexes are policy
// effects, not sampling noise.
func derivedStreams(sp *Spec, run int) *rng.Source {
	return rng.New(sp.Seed).Derive(sp.Name).Derive(fmt.Sprintf("run-%03d", run))
}

// Migration/placement thresholds. The scheduler's busy gate must equal the
// migration policies' Hi threshold: a machine the engine refuses to place on
// is exactly a machine the evacuation policies would clear.
const (
	migrateHi = 0.8 // local load at/above which residents evacuate (and placement stops)
	migrateLo = 0.2 // resume threshold for the suspension fallback
	idleBelow = 0.5 // destination machines must be idler than this
)

// cancelProbes is how many cancellation probe points a cancellable run
// spreads across its horizon: enough that a cancelled context halts the
// event loop promptly, few enough that probes are noise in the event count.
const cancelProbes = 256

// AuditError reports engine-invariant violations recorded by an audited run
// (see Options.Audit).
type AuditError struct {
	// Instance and Run locate the violating cell.
	Instance string
	Run      int
	// Violations are the auditor's messages; Dropped counts messages beyond
	// the auditor's retention cap.
	Violations []string
	Dropped    int
}

func (e *AuditError) Error() string {
	// No "scenario: <instance> run <n>" prefix here: the executor wraps
	// collected run errors with exactly that context, and direct callers
	// have the Instance/Run fields.
	msg := "engine audit failed:\n  " + strings.Join(e.Violations, "\n  ")
	if e.Dropped > 0 {
		msg += fmt.Sprintf("\n  ... and %d more violations", e.Dropped)
	}
	return msg
}

// runInstance executes one instance for one run index and returns its
// indexes. It is deterministic: equal (spec, instance, run) yield equal
// indexes. Each call owns its world — event kernel, cluster, machines,
// policies and derived random streams — so concurrent calls on distinct
// arenas share no mutable state and the executor can fan (instance, run)
// cells out across goroutines.
//
// A cancelled or expired ctx halts the discrete-event loop at the next
// probe tick and returns ctx's error; the probes observe the simulation
// without mutating it or consuming random draws, so an uncancelled ctx
// yields the same indexes as context.Background. With audit the engine
// invariant auditor watches the run (see Options.Audit) and violations
// return an *AuditError. A non-nil tr attaches run telemetry: wall-clock
// phase attribution (setup / simulate / measure) plus the kernel's
// traffic counters, recorded into tr for the executor to fold into the
// sweep recorder. Telemetry only observes — with tr == nil (the default
// and the production path) no clock is read and the kernel's stats hook
// stays detached, and either way the returned Indexes are identical.
//
// A non-nil ar recycles world and simulation state across calls (see
// runArena); nil builds everything fresh. Both paths run this one body and
// produce identical indexes — the reuse-identity property pins it.
func runInstance(ctx context.Context, inst Instance, run int, audit bool, tr *obs.RunTrace, ar *runArena) (Indexes, error) {
	var phaseAt time.Time
	if tr != nil {
		phaseAt = time.Now()
	}
	sp := inst.Spec.withDefaults()
	if err := sp.Validate(); err != nil {
		return Indexes{}, err
	}
	if err := ctx.Err(); err != nil {
		return Indexes{}, err
	}
	horizon := time.Duration(sp.HorizonS * float64(time.Second))
	src, err := workloadSource(sp.Workload.Arrivals.Kind)
	if err != nil {
		return Indexes{}, fmt.Errorf("scenario: %s: %w", sp.Name, err)
	}
	if a := sp.Workload.Arrivals; a.Kind == "trace" && len(a.TraceS) == 0 {
		return Indexes{}, fmt.Errorf("scenario: %s: trace arrivals not inlined — trace_path requires scenario.Load", sp.Name)
	}

	// ---- world generation (shared across matrix cells, cached per run
	// index in the arena; a single-use arena is the fresh path) ----
	if ar == nil {
		ar = new(runArena)
	}
	worldFresh := ar.worldRun != run+1
	if err := ar.ensureWorld(sp, run, horizon); err != nil {
		return Indexes{}, err
	}
	rebuilt, err := ar.ensureCluster(worldFresh)
	if err != nil {
		return Indexes{}, err
	}
	if err := ar.ensureCandidates(sp, rebuilt); err != nil {
		return Indexes{}, err
	}
	ar.ensureTopology(sp)
	k := ar.cluster.Sim
	var kstats vtime.Stats
	if tr != nil {
		k.SetStats(&kstats)
	}
	// The flat link is the model default; a site topology layers its
	// resolver on top, so machine pairs with declared positions price by
	// their site-pair link and everything else (nothing, today) falls back.
	ar.cluster.Net = netsim.New(netsim.Link{
		Latency:   time.Duration(sp.Machines.LatencyMs * float64(time.Millisecond)),
		Bandwidth: *sp.Machines.BandwidthMiBps * (1 << 20),
	})
	if ar.topo != nil {
		ar.cluster.Net.SetResolver(ar.topo.resolver())
	}
	// An audited run re-derives the kernel's accounting invariants alongside
	// the simulation; the auditor only observes, so indexes are unchanged.
	var auditor *sim.Auditor
	if audit {
		auditor = sim.AttachAuditor(ar.cluster)
	}

	// ---- the cell: policies, events, run, measurement ----
	c := &ar.cell
	if err := c.reset(ar, inst, sp, src, run, horizon); err != nil {
		return Indexes{}, err
	}
	c.schedule(ctx.Done())
	if tr != nil {
		now := time.Now()
		tr.Setup = now.Sub(phaseAt)
		phaseAt = now
	}
	k.RunUntil(horizon)
	if tr != nil {
		now := time.Now()
		tr.Simulate = now.Sub(phaseAt)
		phaseAt = now
	}
	// Only a run the probe actually truncated is discarded: a context that
	// expires after the final event has run leaves the indexes complete and
	// valid, and throwing them away would shrink partial reports for no
	// reason.
	if c.halted {
		return Indexes{}, ctx.Err()
	}
	if auditor != nil {
		auditor.Finish()
		if v := auditor.Violations(); len(v) > 0 {
			return Indexes{}, &AuditError{
				Instance: inst.Key(), Run: run,
				Violations: v, Dropped: auditor.Dropped,
			}
		}
	}
	if c.dagErr != nil {
		return Indexes{}, c.dagErr
	}
	idx := c.measure()
	if tr != nil {
		tr.Measure = time.Since(phaseAt)
		tr.Kernel = obs.KernelCounters{
			Scheduled:    kstats.Scheduled,
			Fired:        kstats.Fired,
			Cancelled:    kstats.Cancelled,
			AuditCalls:   kstats.AuditCalls,
			HeapMax:      kstats.HeapMax,
			StateChanges: ar.cluster.StateChanges(),
		}
	}
	return idx, nil
}

// cell is one (instance, run) simulation of the execution layer: waiting
// tasks go onto idle workstations, owners and faults reclaim them, and the
// migration policy suspends or moves residents. Each step is a method. The
// cell lives in its arena (runArena.cell), so the arena's cached arrival
// and fault callbacks call those methods directly, and reset recycles its
// queue buffers and bound callbacks from cell to cell.
//
// Closed and streaming cells differ in two places. A closed cell's tasks
// are the arena's generated world, scheduled as arrival events up front,
// and each checkpointable task carries its own checkpoint chain. A
// streaming cell pumps arrivals from a source cursor into a bounded pool
// and checkpoints every resident on one cell-wide ticker, because a
// per-task chain would outlive its recycled record.
type cell struct {
	ar        *runArena
	inst      Instance
	sp        *Spec
	run       int
	horizon   time.Duration
	streaming bool
	dag       bool
	cl        *sim.Cluster
	topo      *siteTopology
	pol       sched.Policy
	// loc is pol when it is the locality policy, whose backpressure drops
	// tasks out of the queue.
	loc     *sched.Locality
	ck      *migrate.Checkpointer
	lb      *loadbalance.VCEMigrate
	stealth *loadbalance.Stealth
	// imageBytes sizes every task's image; edgeBytes a DAG edge's payload.
	imageBytes, edgeBytes int64

	// waiting is the placement queue; states the machine snapshot of the
	// current placement round. placing and placeAgain guard tryPlace.
	waiting             []sched.Item
	states              []sched.MachineState
	placing, placeAgain bool

	// The streaming arrival pump: the source cursor, the work and
	// constraint streams, and how many arrivals it has drawn.
	cursor          ArrivalCursor
	workRng, conRng *rng.Source
	generated       int

	// The cancellation probe: done is ctx.Done(), halted whether it fired.
	done       <-chan struct{}
	probeEvery time.Duration
	halted     bool

	// acc folds completions, rejections and queue depth in as events fire.
	// submitted counts tasks that entered the queue; every other offered
	// task was rejected (past the horizon, refused admission, never drawn,
	// or a DAG child whose ancestry did not finish in time).
	acc       StreamingIndexes
	submitted int
	failed    int64
	// affine counts first placements of tasks with a known data site,
	// forwarded those placed off it; xferWaitS totals data-staging time.
	affine, forwarded int
	xferWaitS         float64
	dagErr            error

	// fns are the cell's methods bound once per arena, so scheduling them
	// as events allocates nothing.
	fns struct {
		onDone              func(*sim.Task, time.Duration)
		pump, ckTick, probe func()
	}
}

// reset readies the arena's cell for (inst, run): it clears the per-cell
// state, keeping the queue buffers and bound callbacks, and builds the
// placement and migration policies.
func (c *cell) reset(ar *runArena, inst Instance, sp *Spec, src WorkloadSource, run int, horizon time.Duration) error {
	pol, err := newSchedPolicy(inst.Sched)
	if err != nil {
		return err
	}
	*c = cell{
		ar: ar, inst: inst, sp: sp, run: run, horizon: horizon,
		streaming: src.Streaming(), dag: sp.Workload.Graph != nil,
		cl: ar.cluster, topo: ar.topo, pol: pol,
		imageBytes: int64(sp.Workload.ImageMiB * (1 << 20)),
		waiting:    c.waiting[:0], states: c.states[:0], fns: c.fns,
	}
	if c.fns.onDone == nil {
		c.fns.onDone, c.fns.pump, c.fns.ckTick, c.fns.probe = c.onDone, c.pump, c.ckTick, c.probe
	}
	nm := len(ar.machines)
	ar.down = resetFill(ar.down, nm, false)
	ar.ownerLoad = resetFill(ar.ownerLoad, nm, 0)
	ar.inflight = resetFill(ar.inflight, nm, 0)
	ar.pool.reset()
	c.acc.NoteQueueDepth(0, 0)
	if c.dag {
		c.edgeBytes = int64(sp.Workload.Graph.DataMiB * (1 << 20))
	}
	// The locality policy scores candidates by the transfer cost of the
	// workload's dominant payload — the dependency edge for DAG workloads,
	// the task image otherwise.
	c.loc, _ = pol.(*sched.Locality)
	if c.loc != nil && c.topo != nil {
		payload := c.imageBytes
		if c.dag {
			payload = c.edgeBytes
		}
		c.loc.SetTopology(c.topo.siteOf, c.topo.costMatrix(payload))
	}
	if c.streaming {
		root := derivedStreams(sp, run)
		c.cursor = src.Cursor(sp.Workload.Arrivals, root.Derive("arrivals"))
		c.workRng = root.Derive("work")
		if sp.Workload.Constrained != nil {
			c.conRng = root.Derive("constraints")
		}
	}
	ckEvery := time.Duration(sp.CheckpointIntervalS * float64(time.Second))
	var strategy migrate.Strategy
	switch inst.Migration {
	case "none":
	case "suspend":
		c.stealth = loadbalance.NewStealth(migrateHi, migrateLo)
		c.stealth.Attach(c.cl)
	case "address-space":
		strategy = migrate.AddressSpace{}
	case "checkpoint":
		c.ck = migrate.NewCheckpointer(ckEvery)
		strategy = c.ck
	case "recompile":
		strategy = newRecompile()
	case "adaptive":
		c.ck = migrate.NewCheckpointer(ckEvery)
		if strategy, err = migrate.NewPicker(migrate.AddressSpace{}, c.ck, newRecompile()); err != nil {
			return err
		}
	default:
		return fmt.Errorf("scenario: unknown migration strategy %q", inst.Migration)
	}
	if strategy != nil {
		c.lb = loadbalance.NewVCEMigrate(migrateHi, migrateLo, idleBelow, strategy)
		c.lb.Attach(c.cl)
	}
	return nil
}

// newRecompile builds the recompilation migration strategy.
func newRecompile() *migrate.Recompile {
	return &migrate.Recompile{Cost: compilemgr.CostModel{Base: 60 * time.Second, PerMiB: time.Second}}
}

// schedule seeds the kernel with the cell's events. The order — owner
// steps, arrivals, the checkpoint ticker, the placement listener, faults,
// the cancellation probe — is part of the result: same-instant events fire
// in scheduling order.
func (c *cell) schedule(done <-chan struct{}) {
	ar, k := c.ar, c.cl.Sim
	if c.sp.Owner != nil {
		for mi := range ar.machines {
			for si, s := range ar.ownerSteps[mi] {
				k.At(s.At, ar.ownerFn(mi, si))
			}
		}
	}
	if c.streaming {
		c.next()
		// Streaming cells checkpoint on one cell-wide cadence over the
		// live residents (see attach).
		if c.ck != nil && c.sp.Workload.Checkpointable {
			k.After(c.ck.Interval, c.fns.ckTick)
		}
	} else {
		for i := range ar.gens {
			// Slots hand out in ascending order, so record i is task i.
			r := ar.pool.at(ar.pool.acquire())
			// Only root tasks follow the arrival source; children arrive
			// when their last parent completes (see onDone).
			if c.dag {
				if r.pending = int32(len(ar.parents[i])); r.pending > 0 {
					continue
				}
			}
			if ar.gens[i].arrival < c.horizon {
				k.At(ar.gens[i].arrival, ar.arriveFn(i))
			}
		}
	}
	// Owner departures and repairs free machines: retry placement.
	c.cl.OnChange(func(m *sim.Machine, _ time.Duration) {
		if placeable(ar.down[m.Index()], m) {
			c.tryPlace()
		}
	})
	// Failure instants replay from the arena's cached fault schedule;
	// repairs reconstruct as fail + DownS, preserving the fail/repair event
	// interleaving.
	if f := c.sp.Faults; f != nil {
		downFor := time.Duration(f.DownS * float64(time.Second))
		for mi := range ar.machines {
			for _, at := range ar.faultAt[mi] {
				k.At(at, ar.failFn(mi))
				if at+downFor < c.horizon {
					k.At(at+downFor, ar.repairFn(mi))
				}
			}
		}
	}
	// A cancellable ctx installs a self-rescheduling probe that halts the
	// kernel once ctx is done. Probes never touch world state or random
	// streams, so indexes are unchanged when ctx survives; Background's nil
	// Done channel skips them entirely.
	if done != nil {
		c.done = done
		c.probeEvery = c.horizon / cancelProbes
		if c.probeEvery <= 0 {
			c.probeEvery = time.Millisecond
		}
		k.After(c.probeEvery, c.fns.probe)
	}
}

// placeable reports whether a machine takes new placements: it is up and
// its owner leaves it under the busy gate (the DAWGS idle-placement
// discipline). Residents of other machines are the migration and
// suspension policies' problem.
func placeable(down bool, m *sim.Machine) bool { return !down && m.LocalLoad() < migrateHi }

// item builds task ti's placement-queue entry. Its data-affinity site
// rides along (see fail for the one requeue that drops it).
func (c *cell) item(ti int, work float64) sched.Item {
	r := c.ar.pool.at(ti)
	cands := c.ar.allIDs
	if r.constrained {
		cands = c.ar.pinnedIDs
	}
	return sched.Item{Task: taskgraph.TaskID(r.ID), CandidateIDs: cands, Work: work, HomeSite: int(r.home)}
}

// submit queues task slot i with the draws g at the current instant and
// runs placement.
func (c *cell) submit(i int, g taskGen) {
	r := c.ar.pool.at(i)
	if err := r.Recycle(sim.Task{
		ID:             r.ID,
		Work:           g.work,
		ImageBytes:     c.imageBytes,
		Checkpointable: c.sp.Workload.Checkpointable,
		OnDone:         c.fns.onDone,
	}); err != nil {
		// Impossible by construction: completion detaches the record
		// before OnDone releases its slot, and Cluster.Reset detaches
		// residents between cells.
		panic(err)
	}
	r.queuedAt = c.cl.Sim.Now()
	r.constrained = g.constrained
	c.submitted++
	c.waiting = append(c.waiting, c.item(i, g.work))
	c.tryPlace()
}

// pump is the open-loop arrival event: it draws the arrival's work and
// constraint, admits it unless the bounded queue is full, and schedules
// the next arrival. The draws happen even for a refused arrival, so every
// cell of the run consumes the derived streams identically whatever its
// queue state.
func (c *cell) pump() {
	c.generated++
	g := taskGen{work: c.sp.Workload.Work.Sample(c.workRng)}
	g.constrained = c.conRng != nil && c.conRng.Bool(c.sp.Workload.Constrained.Fraction)
	if limit := c.sp.Workload.QueueLimit; limit == 0 || len(c.waiting) < limit {
		c.submit(c.ar.pool.acquire(), g)
	}
	c.next()
}

// next schedules the pump at the cursor's next instant, unless the task
// cap is reached, the source is exhausted or the instant is past the
// horizon.
func (c *cell) next() {
	if c.generated >= c.sp.Workload.Tasks {
		return
	}
	if at, ok := c.cursor(); ok && at < c.horizon {
		c.cl.Sim.At(at, c.fns.pump)
	}
}

// tryPlace runs placement rounds until the queue settles. It is re-entered
// through cluster change notifications (AddTask fires OnChange, which calls
// tryPlace): the guard collapses re-entrant calls into one extra round
// after the current one, so every round works from a fresh free-slot
// snapshot and machines are never over-subscribed past their Slots.
func (c *cell) tryPlace() {
	if c.placing {
		c.placeAgain = true
		return
	}
	c.placing = true
	for c.placeRound() {
	}
	c.placing = false
	// The queue has settled for this event: record its depth for the
	// time-weighted backlog integral.
	c.acc.NoteQueueDepth(c.cl.Sim.Now(), len(c.waiting))
}

// placeRound places what it can of the waiting queue on a snapshot of the
// placeable machines and lands the assignments. It reports whether a
// re-entrant tryPlace asked for another round.
func (c *cell) placeRound() bool {
	c.placeAgain = false
	if len(c.waiting) == 0 {
		return false
	}
	// The snapshot loop visits every machine each round, so it runs on
	// hoisted locals.
	ar := c.ar
	down, inflight, slots := ar.down, ar.inflight, ar.slots
	states := c.states[:0]
	for i, m := range ar.machines {
		// In-transit deliveries (DAG data staging) reserve their slot up
		// front, so a later placement round can't spend it.
		free := slots[i] - m.RemoteTasks() - inflight[i]
		if free <= 0 || !placeable(down[i], m) {
			continue
		}
		states = append(states, sched.MachineState{Machine: m.Spec, Load: m.Load(), Slots: free, Index: m.Index()})
	}
	c.states = states
	if len(states) == 0 {
		return false
	}
	placed, left := c.pol.Place(c.waiting, states)
	c.waiting = left
	if c.loc != nil {
		// Backpressure rejections leave the system here: dropped items are
		// in neither output, so account them now.
		for _, d := range c.loc.Dropped() {
			c.acc.TaskRejected()
			if c.streaming {
				ar.pool.release(ar.pool.index[string(d.Task)])
			}
		}
	}
	for _, a := range placed {
		ti, hi := ar.pool.index[string(a.Task)], a.Index
		r := ar.pool.at(ti)
		if delay := c.stageDelay(ti, hi); delay > 0 {
			// Dependency data must cross the network first: hold the slot
			// and deliver the task when the transfer lands.
			c.notePlaced(r, hi)
			c.xferWaitS += delay.Seconds()
			inflight[hi]++
			c.cl.Sim.After(delay, func() { c.deliver(ti, hi) })
			continue
		}
		if err := ar.machines[hi].AddTask(&r.Task); err != nil {
			// Placement raced a policy callback; requeue.
			c.waiting = append(c.waiting, c.item(ti, r.Remaining()))
			continue
		}
		c.notePlaced(r, hi)
		c.attach(r)
	}
	return c.placeAgain
}

// stageDelay is the data-staging time a DAG placement of task ti on
// machine hi pays before the task can start: the slowest transfer of the
// edge payload from any parent's completion host over the actual network
// link. Co-located parents (and root tasks) stage for free.
func (c *cell) stageDelay(ti, hi int) time.Duration {
	if !c.dag {
		return 0
	}
	var d time.Duration
	dst := c.ar.machines[hi].Name()
	for _, p := range c.ar.parents[ti] {
		ph := int(c.ar.pool.at(int(p)).ranOn)
		if ph == hi {
			continue
		}
		t, err := c.cl.Net.TransferTime(c.ar.machines[ph].Name(), dst, c.edgeBytes)
		if err == nil && t > d {
			d = t
		}
	}
	return d
}

// notePlaced marks a task placed and, on its first placement, folds it
// into the affinity accounting behind forwarded_pct.
func (c *cell) notePlaced(r *taskRec, hi int) {
	if r.home > 0 && !r.placed {
		c.affine++
		if c.topo.siteOf[hi]+1 != int(r.home) {
			c.forwarded++
		}
	}
	r.placed = true
}

// attach starts a closed cell's per-task checkpoint chain when a
// checkpointable task first lands. Streaming cells checkpoint through
// ckTick instead.
func (c *cell) attach(r *taskRec) {
	if c.ck != nil && r.Checkpointable && !c.streaming && !r.chained {
		r.chained = true
		_ = c.ck.Attach(c.cl, &r.Task)
	}
}

// deliver lands a DAG task whose dependency transfer just finished: the
// reserved slot converts into a real placement, unless the destination
// failed or filled with owner work mid-transfer — then the task bounces
// back to the queue for a fresh decision.
func (c *cell) deliver(ti, hi int) {
	c.ar.inflight[hi]--
	r := c.ar.pool.at(ti)
	m := c.ar.machines[hi]
	if !placeable(c.ar.down[hi], m) || m.AddTask(&r.Task) != nil {
		c.waiting = append(c.waiting, c.item(ti, r.Remaining()))
		c.tryPlace() // the reservation just became real capacity
		return
	}
	c.attach(r)
}

// onDone is every task's completion callback. It folds the completion into
// the indexes, returns a streaming record to the pool and retries
// placement. For DAG workloads it is also the dependency engine: it
// records where the output data now lives, counts down each child's
// parents and submits children whose last parent just finished.
func (c *cell) onDone(t *sim.Task, at time.Duration) {
	ar := c.ar
	ti := ar.pool.index[t.ID]
	r := ar.pool.at(ti)
	if at < r.queuedAt && c.dagErr == nil {
		c.dagErr = fmt.Errorf("scenario: %s run %d: task %s completed at %v before it was ready at %v",
			c.inst.Key(), c.run, t.ID, at, r.queuedAt)
	}
	if host := t.DoneOn(); c.dag && host != nil {
		r.ranOn = int32(host.Index())
		for _, ci := range ar.children[ti] {
			child := ar.pool.at(int(ci))
			if child.pending--; child.pending == 0 {
				if c.topo != nil {
					child.home = int32(c.topo.siteOf[host.Index()]) + 1
				}
				c.submit(int(ci), ar.gens[ci])
			}
		}
	}
	c.acc.TaskDone(at, r.queuedAt, t.Work)
	if c.streaming {
		ar.pool.release(ti)
	}
	c.tryPlace()
}

// ckTick checkpoints every checkpointable resident and re-arms itself.
func (c *cell) ckTick() {
	for _, m := range c.ar.machines {
		for _, t := range m.Tasks() {
			if t.Checkpointable {
				c.ck.CheckpointNow(c.cl, t)
			}
		}
	}
	c.cl.Sim.After(c.ck.Interval, c.fns.ckTick)
}

// fail takes machine mi down: its residents die and requeue to restart
// from their last checkpoint (scratch if none).
func (c *cell) fail(mi int) {
	ar := c.ar
	if ar.down[mi] {
		return
	}
	ar.down[mi] = true
	m := ar.machines[mi]
	for _, victim := range m.Tasks() {
		killed, err := m.Kill(victim.ID)
		if err != nil {
			continue
		}
		c.failed++
		_ = killed.Rewind(killed.CheckpointedWork)
		// A fault requeue re-places without data affinity; the corpus
		// digest pins this.
		it := c.item(ar.pool.index[killed.ID], killed.Remaining())
		it.HomeSite = 0
		c.waiting = append(c.waiting, it)
	}
	m.SetLocalLoad(1)
	// Surviving machines may have free slots for the requeued victims;
	// don't wait for an unrelated event.
	c.tryPlace()
}

// repair hands machine mi back to its owner at the owner trace's current
// level, not blanket idle, and retries placement.
func (c *cell) repair(mi int) {
	c.ar.down[mi] = false
	c.ar.machines[mi].SetLocalLoad(c.ar.ownerLoad[mi])
	c.tryPlace()
}

// probe halts the kernel once the run's context is done, else re-arms.
func (c *cell) probe() {
	select {
	case <-c.done:
		c.halted = true
		c.cl.Sim.Halt()
	default:
		c.cl.Sim.After(c.probeEvery, c.fns.probe)
	}
}

// measure finishes the run's accounting and returns its indexes.
func (c *cell) measure() Indexes {
	ar := c.ar
	end := c.cl.Sim.Now()
	// Rejected counts tasks that never got a placement: tasks never
	// submitted, and submitted tasks still waiting for their first. Fault
	// requeues stranded at the horizon were placed once and show up in
	// Failed; locality drops were counted at drop time; tasks still staging
	// data at the horizon were placed.
	c.acc.rejected += c.sp.Workload.Tasks - c.submitted
	for _, it := range c.waiting {
		if !ar.pool.at(ar.pool.index[string(it.Task)]).placed {
			c.acc.TaskRejected()
		}
	}
	idx := Indexes{Failed: c.failed, XferWaitS: c.xferWaitS}
	c.acc.Finalize(&idx, end, c.sp.Workload.Tasks)
	if c.affine > 0 {
		idx.ForwardedPct = 100 * float64(c.forwarded) / float64(c.affine)
	}
	if c.dag && ar.graphCP > 0 {
		idx.CriticalPathStretch = idx.MakespanS / ar.graphCP
	}
	var util float64
	for _, m := range ar.machines {
		util += m.RemoteUtilization(end)
	}
	if len(ar.machines) > 0 {
		idx.UtilizationPct = 100 * util / float64(len(ar.machines))
	}
	if c.lb != nil {
		idx.Migrations = c.lb.Migrations
		idx.Suspensions = c.lb.FallbackSuspends
	}
	if c.stealth != nil {
		idx.Suspensions = c.stealth.Suspensions
	}
	return idx
}

// dist builds a metrics.Dist over a per-run index extracted by f.
func dist(runs []Indexes, f func(Indexes) float64) *metrics.Dist {
	var d metrics.Dist
	for _, r := range runs {
		d.Observe(f(r))
	}
	return &d
}
