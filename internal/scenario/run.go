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
	var kstats vtime.Stats
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
	streaming := src.Streaming()
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
	topo := ar.topo
	graph := sp.Workload.Graph
	dag := graph != nil
	ar.prepCell(streaming)
	if dag {
		ar.prepDag()
	}
	c := ar.cluster
	machines := ar.machines
	if tr != nil {
		c.Sim.SetStats(&kstats)
	}
	// The flat link is the model default; a site topology layers its
	// resolver on top, so machine pairs with declared positions price by
	// their site-pair link and everything else (nothing, today) falls back.
	c.Net = netsim.New(netsim.Link{
		Latency:   time.Duration(sp.Machines.LatencyMs * float64(time.Millisecond)),
		Bandwidth: *sp.Machines.BandwidthMiBps * (1 << 20),
	})
	if topo != nil {
		c.Net.SetResolver(topo.resolver())
	}

	// An audited run re-derives the kernel's accounting invariants alongside
	// the simulation; the auditor only observes, so indexes are unchanged.
	var auditor *sim.Auditor
	if audit {
		auditor = sim.AttachAuditor(c)
	}

	// down marks failed machines; ownerLoad remembers the owner trace's
	// current level so repair restores the owner's load, not idle, and a
	// trace step during an outage is deferred instead of reviving the
	// machine. Both are keyed by Machine.Index: these are consulted on
	// every machine-change notification, so no name hashing on that path.
	down := ar.down
	ownerLoad := ar.ownerLoad
	if sp.Owner != nil {
		for mi := range machines {
			for si, s := range ar.ownerSteps[mi] {
				c.Sim.At(s.At, ar.ownerFn(mi, si))
			}
		}
	}

	imageBytes := int64(sp.Workload.ImageMiB * (1 << 20))
	var edgeBytes int64
	if dag {
		edgeBytes = int64(graph.DataMiB * (1 << 20))
	}

	// ---- per-cell state ----
	idx := Indexes{}
	pol, err := newSchedPolicy(inst.Sched)
	if err != nil {
		return Indexes{}, err
	}
	// The locality policy scores candidates by the transfer cost of the
	// workload's dominant payload — the dependency edge for DAG workloads,
	// the task image otherwise.
	loc, _ := pol.(*sched.Locality)
	if loc != nil && topo != nil {
		payload := imageBytes
		if dag {
			payload = edgeBytes
		}
		loc.SetTopology(topo.siteOf, topo.costMatrix(payload))
	}
	// Affinity accounting for the new indexes: affine counts first
	// placements of tasks with a known data site, forwarded those placed
	// off it; xferWaitS integrates time spent staging dependency data.
	var affine, forwarded int
	var xferWaitS float64
	var dagErr error

	var ck *migrate.Checkpointer
	var lb *loadbalance.VCEMigrate
	var stealth *loadbalance.Stealth
	attachMigrate := func(strategy migrate.Strategy) {
		lb = loadbalance.NewVCEMigrate(migrateHi, migrateLo, idleBelow, strategy)
		lb.Attach(c)
	}
	newRecompile := func() *migrate.Recompile {
		return &migrate.Recompile{Cost: compilemgr.CostModel{Base: 60 * time.Second, PerMiB: time.Second}}
	}
	switch inst.Migration {
	case "none":
	case "suspend":
		stealth = loadbalance.NewStealth(migrateHi, migrateLo)
		stealth.Attach(c)
	case "address-space":
		attachMigrate(migrate.AddressSpace{})
	case "checkpoint":
		ck = migrate.NewCheckpointer(time.Duration(sp.CheckpointIntervalS * float64(time.Second)))
		attachMigrate(ck)
	case "recompile":
		attachMigrate(newRecompile())
	case "adaptive":
		ck = migrate.NewCheckpointer(time.Duration(sp.CheckpointIntervalS * float64(time.Second)))
		picker, err := migrate.NewPicker(migrate.AddressSpace{}, ck, newRecompile())
		if err != nil {
			return Indexes{}, err
		}
		attachMigrate(picker)
	default:
		return Indexes{}, fmt.Errorf("scenario: unknown migration strategy %q", inst.Migration)
	}

	// ---- scheduling loop ----
	// Portable tasks accept every machine; constrained tasks only their
	// pinned class. Candidate sets are Machine.Index ids; they live in the
	// arena because the generated fleet's classes are spec-determined,
	// stable across cells and runs.
	slots := ar.slots
	candsFor := func(i int) []int {
		if ar.gens[i].constrained {
			return ar.pinnedIDs
		}
		return ar.allIDs
	}
	// newItem builds the placement-queue entry for task i. Submission, race
	// requeue and transfer bounce go through it so the data-affinity site
	// rides along; fault requeue builds its own Item (see failHook), which
	// carries no HomeSite.
	newItem := func(i int, work float64) sched.Item {
		it := sched.Item{Task: taskgraph.TaskID(ar.gens[i].id), CandidateIDs: candsFor(i), Work: work}
		if dag && topo != nil && ar.homeSite[i] >= 0 {
			it.HomeSite = int(ar.homeSite[i]) + 1
		}
		return it
	}
	waiting := ar.waiting
	// acc is the run's one-pass index accumulator: completions, rejections
	// and queue-depth changes fold in as events fire, so measurement state
	// is fixed-size however many tasks the cell absorbs. (Per-task scratch
	// is reached through ar, not hoisted locals: a streaming cell's pool
	// grows its index-keyed slices mid-run.)
	acc := &ar.acc
	acc.NoteQueueDepth(0, 0)

	// tryPlace is re-entered through cluster change notifications (AddTask
	// fires OnChange, which calls tryPlace): the guard collapses re-entrant
	// calls into one extra pass after the current one finishes, so every
	// pass works from a fresh free-slot snapshot and machines are never
	// over-subscribed past their Slots.
	placing := false
	placeAgain := false
	// statesBuf is reused across placement passes: Place snapshots the
	// machine states it needs, so the buffer is dead once Place returns.
	statesBuf := ar.statesBuf
	// stageDelay is the data-staging time a DAG placement pays before the
	// task can start: the slowest transfer of the edge payload from any
	// parent's completion host over the actual network link. Co-located
	// parents (and root tasks) stage for free.
	stageDelay := func(ti, hi int) time.Duration {
		if !dag {
			return 0
		}
		var d time.Duration
		dst := machines[hi].Name()
		for _, p := range ar.parents[ti] {
			ph := ar.doneHost[p]
			if ph < 0 || int(ph) == hi {
				continue
			}
			t, err := c.Net.TransferTime(machines[ph].Name(), dst, edgeBytes)
			if err == nil && t > d {
				d = t
			}
		}
		return d
	}
	// notePlaced marks a task placed and, on its first placement, folds it
	// into the affinity accounting behind forwarded_pct.
	notePlaced := func(ti, hi int) {
		if dag && topo != nil && !ar.everPlaced[ti] && ar.homeSite[ti] >= 0 {
			affine++
			if topo.siteOf[hi] != int(ar.homeSite[ti]) {
				forwarded++
			}
		}
		ar.everPlaced[ti] = true
	}
	var deliver func(ti, hi int)
	var tryPlace func()
	tryPlace = func() {
		if placing {
			placeAgain = true
			return
		}
		placing = true
		// The outermost exit is where the queue has settled for this event:
		// record its depth for the time-weighted backlog integral.
		defer func() {
			placing = false
			acc.NoteQueueDepth(c.Sim.Now(), len(waiting))
		}()
		for {
			placeAgain = false
			if len(waiting) == 0 {
				return
			}
			states := statesBuf[:0]
			for i, m := range machines {
				// In-transit deliveries (DAG data staging) reserve their
				// slot up front, so a later placement round can't spend it.
				free := slots[i] - m.RemoteTasks() - ar.inflight[i]
				// Down machines and owner-occupied machines take no new
				// placements (the DAWGS idle-placement discipline); residents
				// are the migration/suspension policies' problem.
				if down[i] || m.LocalLoad() >= migrateHi || free <= 0 {
					continue
				}
				states = append(states, sched.MachineState{Machine: m.Spec, Load: m.Load(), Slots: free, Index: m.Index()})
			}
			statesBuf = states
			if len(states) == 0 {
				return
			}
			placed, left := pol.Place(waiting, states)
			waiting = left
			if loc != nil {
				// Backpressure rejections leave the system here: dropped
				// items are in neither output, so account them now.
				for _, d := range loc.Dropped() {
					acc.TaskRejected()
					if streaming {
						ar.releaseSlot(ar.taskIdx[string(d.Task)])
					}
				}
			}
			for _, a := range placed {
				ti := ar.taskIdx[string(a.Task)]
				t := ar.taskAt(ti)
				hi := a.Index
				if delay := stageDelay(ti, hi); delay > 0 {
					// Dependency data must cross the network first: hold the
					// slot and deliver the task when the transfer lands.
					notePlaced(ti, hi)
					xferWaitS += delay.Seconds()
					ar.inflight[hi]++
					ti, hi := ti, hi
					c.Sim.After(delay, func() { deliver(ti, hi) })
					continue
				}
				if err := machines[hi].AddTask(t); err != nil {
					// Placement raced a policy callback; requeue.
					waiting = append(waiting, newItem(ti, t.Remaining()))
					continue
				}
				notePlaced(ti, hi)
				// Streaming cells checkpoint through the cell-wide ticker
				// below: a per-task tick chain would outlive its recycled
				// pool record and checkpoint the wrong incarnation.
				if ck != nil && t.Checkpointable && !streaming && !ar.attached[ti] {
					ar.attached[ti] = true
					_ = ck.Attach(c, t)
				}
			}
			if !placeAgain {
				return
			}
		}
	}

	// deliver lands a DAG task whose dependency transfer just finished: the
	// reserved slot converts into a real placement, unless the destination
	// failed or filled with owner work mid-transfer — then the task bounces
	// back to the queue for a fresh decision.
	deliver = func(ti, hi int) {
		ar.inflight[hi]--
		t := ar.taskAt(ti)
		m := machines[hi]
		if down[hi] || m.LocalLoad() >= migrateHi || m.AddTask(t) != nil {
			waiting = append(waiting, newItem(ti, t.Remaining()))
			tryPlace() // the reservation just became real capacity
			return
		}
		if ck != nil && t.Checkpointable && !streaming && !ar.attached[ti] {
			ar.attached[ti] = true
			_ = ck.Attach(c, t)
		}
	}

	// One completion callback shared by every task of the cell: the pooled
	// task records are re-initialized per cell, but the closure itself is
	// identical across them, so tasks never carry per-task closures. In a
	// streaming cell, completion also returns the record's slot to the pool
	// for the next arrival. For DAG workloads it is also the dependency
	// engine: a completion records its host (where the output data now
	// lives), decrements each child's readiness countdown and submits
	// children whose last parent just finished.
	onDone := func(t *sim.Task, at time.Duration) {
		ti := ar.taskIdx[t.ID]
		arrival := ar.gens[ti].arrival
		if dag {
			arrival = ar.readyAt[ti]
			if at < arrival && dagErr == nil {
				dagErr = fmt.Errorf("scenario: %s run %d: task %s completed at %v before its last parent at %v",
					inst.Key(), run, t.ID, at, arrival)
			}
			host := t.DoneOn()
			if host != nil {
				ar.doneHost[ti] = int32(host.Index())
				for _, ci := range ar.children[ti] {
					ar.remParents[ci]--
					if ar.remParents[ci] == 0 {
						ar.readyAt[ci] = at
						if topo != nil {
							ar.homeSite[ci] = int32(topo.siteOf[host.Index()])
						}
						ar.submitHook(int(ci))
					}
				}
			}
		}
		acc.TaskDone(at, arrival, t.Work)
		if streaming {
			ar.releaseSlot(ti)
		}
		tryPlace()
	}
	ar.submitHook = func(i int) {
		g := &ar.gens[i]
		if err := ar.taskAt(i).Recycle(sim.Task{
			ID:             g.id,
			Work:           g.work,
			ImageBytes:     imageBytes,
			Checkpointable: sp.Workload.Checkpointable,
			OnDone:         onDone,
		}); err != nil {
			// Impossible by construction: completion detaches the record
			// before OnDone returns its slot, and Cluster.Reset detaches
			// residents between cells.
			panic(err)
		}
		if dag {
			ar.submitted[i] = true
			ar.readyAt[i] = c.Sim.Now()
		}
		waiting = append(waiting, newItem(i, g.work))
		tryPlace()
	}
	// generated counts the arrivals a streaming pump actually produced; the
	// remainder up to the task cap never arrived and is accounted rejected
	// after the run, mirroring the eager past-the-horizon rule.
	generated := 0
	if !streaming {
		for i := range ar.gens {
			if dag {
				// Only root tasks follow the arrival source; children arrive
				// when their last parent completes. A task still unsubmitted
				// at the horizon is accounted rejected after the run.
				if len(ar.parents[i]) == 0 && ar.gens[i].arrival < horizon {
					c.Sim.At(ar.gens[i].arrival, ar.arriveFn(i))
				}
				continue
			}
			if ar.gens[i].arrival >= horizon {
				acc.TaskRejected() // never arrives inside the horizon
				continue
			}
			c.Sim.At(ar.gens[i].arrival, ar.arriveFn(i))
		}
	} else {
		// Open-loop arrival pump: a self-scheduling event draws the next
		// instant from the source cursor and admits or rejects the arrival
		// against the bounded queue. The work and constraint draws always
		// happen — even for a rejected arrival — so every cell of the run
		// consumes the derived streams identically whatever its queue state.
		target := sp.Workload.Tasks
		queueLimit := sp.Workload.QueueLimit
		root := derivedStreams(sp, run)
		cur := src.Cursor(sp.Workload.Arrivals, root.Derive("arrivals"))
		workRng := root.Derive("work")
		con := sp.Workload.Constrained
		var conRng *rng.Source
		if con != nil {
			conRng = root.Derive("constraints")
		}
		var pump func()
		scheduleNext := func() {
			if generated >= target {
				return
			}
			if at, ok := cur(); ok && at < horizon {
				c.Sim.At(at, pump)
			}
		}
		pump = func() {
			generated++
			work := sp.Workload.Work.Sample(workRng)
			constrained := conRng != nil && conRng.Bool(con.Fraction)
			if queueLimit > 0 && len(waiting) >= queueLimit {
				acc.TaskRejected()
			} else {
				s := ar.acquireSlot()
				ar.gens[s] = taskGen{id: ar.ids[s], work: work, arrival: c.Sim.Now(), constrained: constrained}
				ar.submitHook(s)
			}
			scheduleNext()
		}
		scheduleNext()
	}

	// Streaming cells checkpoint on a single cell-wide cadence over the live
	// residents instead of per-task tick chains (see tryPlace).
	if streaming && ck != nil && sp.Workload.Checkpointable {
		interval := time.Duration(sp.CheckpointIntervalS * float64(time.Second))
		var ckTick func()
		ckTick = func() {
			for _, m := range machines {
				for _, t := range m.Tasks() {
					if t.Checkpointable {
						ck.CheckpointNow(c, t)
					}
				}
			}
			c.Sim.After(interval, ckTick)
		}
		c.Sim.After(interval, ckTick)
	}

	// Owner departures free machines: retry placement on load drops.
	c.OnChange(func(m *sim.Machine, _ time.Duration) {
		if m.LocalLoad() < migrateHi && !down[m.Index()] {
			tryPlace()
		}
	})

	// ---- fault injection ----
	// Failure instants replay from the arena's cached fault schedule (same
	// derived stream, same draws as a fresh build); repairs reconstruct as
	// fail + DownS, preserving the fail/repair event interleaving.
	if sp.Faults != nil {
		downFor := time.Duration(sp.Faults.DownS * float64(time.Second))
		ar.failHook = func(mi int) {
			if down[mi] {
				return
			}
			down[mi] = true
			m := machines[mi]
			for _, victim := range m.Tasks() {
				killed, err := m.Kill(victim.ID)
				if err != nil {
					continue
				}
				idx.Failed++
				// Restart from the last checkpoint (scratch if none).
				_ = killed.Rewind(killed.CheckpointedWork)
				waiting = append(waiting, sched.Item{
					Task:         taskgraph.TaskID(killed.ID),
					CandidateIDs: candsFor(ar.taskIdx[killed.ID]),
					Work:         killed.Remaining(),
				})
			}
			m.SetLocalLoad(1)
			// Surviving machines may have free slots for the
			// requeued victims; don't wait for an unrelated event.
			tryPlace()
		}
		ar.repairHook = func(mi int) {
			down[mi] = false
			// Hand the machine back to its owner at the owner trace's
			// current level, not blanket idle.
			machines[mi].SetLocalLoad(ownerLoad[mi])
			tryPlace()
		}
		for mi := range machines {
			for _, at := range ar.faultAt[mi] {
				c.Sim.At(at, ar.failFn(mi))
				repairAt := at + downFor
				if repairAt < horizon {
					c.Sim.At(repairAt, ar.repairFn(mi))
				}
			}
		}
	}

	// ---- run and measure ----
	// A cancellable ctx installs a self-rescheduling probe that halts the
	// kernel once ctx is done. Probes never touch world state or random
	// streams, so indexes are unchanged when ctx survives; Background's nil
	// Done channel skips them entirely.
	halted := false
	if done := ctx.Done(); done != nil {
		interval := horizon / cancelProbes
		if interval <= 0 {
			interval = time.Millisecond
		}
		var probe func()
		probe = func() {
			select {
			case <-done:
				halted = true
				c.Sim.Halt()
			default:
				c.Sim.After(interval, probe)
			}
		}
		c.Sim.After(interval, probe)
	}
	if tr != nil {
		now := time.Now()
		tr.Setup = now.Sub(phaseAt)
		phaseAt = now
	}
	c.Sim.RunUntil(horizon)
	if tr != nil {
		now := time.Now()
		tr.Simulate = now.Sub(phaseAt)
		phaseAt = now
	}
	// Only a run the probe actually truncated is discarded: a context that
	// expires after the final event has run leaves the indexes complete and
	// valid, and throwing them away would shrink partial reports for no
	// reason.
	if halted {
		return Indexes{}, ctx.Err()
	}
	end := c.Sim.Now()
	if auditor != nil {
		auditor.Finish()
		if v := auditor.Violations(); len(v) > 0 {
			return Indexes{}, &AuditError{
				Instance: inst.Key(), Run: run,
				Violations: v, Dropped: auditor.Dropped,
			}
		}
	}

	if dagErr != nil {
		return Indexes{}, dagErr
	}

	// Rejected counts tasks that never got a placement; fault-requeued tasks
	// stranded in the queue at the horizon were placed once and already show
	// up in Failed, not here.
	for _, it := range waiting {
		if !ar.everPlaced[ar.taskIdx[string(it.Task)]] {
			acc.TaskRejected()
		}
	}
	// A streaming pump that the horizon (or an exhausted trace) stopped
	// short of the task cap never offered the remainder: those tasks never
	// arrive, the same fate as eager arrivals past the horizon.
	if streaming {
		acc.rejected += sp.Workload.Tasks - generated
	}
	// A DAG task never submitted — a root arriving past the horizon, or a
	// child whose ancestry didn't finish in time — never entered the system:
	// rejected, the closed-world analogue of the rules above. (Submitted but
	// never-placed tasks are the waiting sweep's; locality drops were counted
	// at drop time; tasks still staging data at the horizon were placed.)
	if dag {
		for i := range ar.gens {
			if !ar.submitted[i] {
				acc.TaskRejected()
			}
		}
	}
	// Hand the grown scratch capacity back to the arena for the next cell.
	ar.waiting = waiting
	ar.statesBuf = statesBuf
	acc.Finalize(&idx, end, sp.Workload.Tasks)
	if affine > 0 {
		idx.ForwardedPct = 100 * float64(forwarded) / float64(affine)
	}
	idx.XferWaitS = xferWaitS
	if dag && ar.graphCP > 0 {
		idx.CriticalPathStretch = idx.MakespanS / ar.graphCP
	}
	var util float64
	for _, m := range machines {
		util += m.RemoteUtilization(end)
	}
	if len(machines) > 0 {
		idx.UtilizationPct = 100 * util / float64(len(machines))
	}
	if lb != nil {
		idx.Migrations = lb.Migrations
		idx.Suspensions = lb.FallbackSuspends
	}
	if stealth != nil {
		idx.Suspensions = stealth.Suspensions
	}
	if tr != nil {
		tr.Measure = time.Since(phaseAt)
		tr.Kernel = obs.KernelCounters{
			Scheduled:    kstats.Scheduled,
			Fired:        kstats.Fired,
			Cancelled:    kstats.Cancelled,
			AuditCalls:   kstats.AuditCalls,
			HeapMax:      kstats.HeapMax,
			StateChanges: c.StateChanges(),
		}
	}
	return idx, nil
}

// dist builds a metrics.Dist over a per-run index extracted by f.
func dist(runs []Indexes, f func(Indexes) float64) *metrics.Dist {
	var d metrics.Dist
	for _, r := range runs {
		d.Observe(f(r))
	}
	return &d
}
