package scenario

import (
	"fmt"
	"reflect"
	"time"

	"vce/internal/arch"
	"vce/internal/rng"
	"vce/internal/sched"
	"vce/internal/sim"
	"vce/internal/workload"
)

// taskGen is one generated task of a run's shared workload: the sampled
// draws (work size, constraint flag, arrival instant) that every matrix
// cell of the same run index replays identically.
type taskGen struct {
	id          string
	work        float64
	arrival     time.Duration
	constrained bool
}

// runArena is a per-worker reuse pool for executing (instance, run) cells.
// One arena serves one worker of one sweep: cells arrive sequentially, so
// nothing here is synchronized.
//
// It recycles two kinds of state:
//
//   - The generated world of a run index — machine specs, owner traces,
//     task draws, fault schedules. Every cell of run k derives the
//     identical world from (spec seed, k), so consecutive cells sharing a
//     run index reuse the generated objects instead of re-deriving and
//     reallocating them (the executor feeds jobs run-major to make such
//     neighbours common).
//   - The simulation substrate — the kernel, machine structs, pooled task
//     records and every index-keyed scratch buffer. These reset in place
//     between cells (Cluster.Reset, Task.Reset discipline), so steady-state
//     sweep execution allocates per-event closures and policy scratch, not
//     worlds.
//
// A nil arena in runInstance degenerates to a fresh single-use arena, which
// IS the fresh-allocation path: the reuse-identity property (#9 in
// internal/scenario/check) pins that both paths produce byte-identical
// reports, so the recycling can be aggressive.
type runArena struct {
	// worldRun is 1+run of the cached generated world; 0 marks empty.
	worldRun int
	specs    []arch.Machine
	slots    []int
	// ownerSteps is the per-machine owner load trace of the cached run.
	ownerSteps [][]sim.LoadStep
	gens       []taskGen
	// faultAt is the per-machine failure schedule of the cached run (repair
	// instants reconstruct as fail + DownS).
	faultAt [][]time.Duration

	// DAG world of the cached run (workload.graph): parents/children
	// adjacency over task indexes (edges always point low → high, so the
	// graph is acyclic by construction) and the ideal critical path in
	// unit-speed seconds — the lower bound critical_path_stretch divides by.
	parents   [][]int32
	children  [][]int32
	graphCP   float64
	cpScratch []float64

	// Realized site topology, cached per machine-set spec: the generated
	// names and class blocks depend only on the spec, so it survives run
	// and cell changes (see ensureTopology). nil means flat network.
	topo    *siteTopology
	topoFor *MachineSetSpec

	cluster  *sim.Cluster
	machines []*sim.Machine

	// ids caches the task ID strings ("task-%03d"), which are independent
	// of both run and cell; taskIdx inverts them. tasks is the pooled task
	// record storage for eager (closed-workload) cells — cells hand out
	// &tasks[i] pointers and re-initialize the values in place.
	ids     []string
	taskIdx map[string]int
	tasks   []sim.Task

	// Streaming (open-loop) cells draw task records from a bounded recycled
	// pool instead: a slot is acquired at arrival admission and released at
	// completion, so live records track the backlog + residents, not the
	// task count. chunks stores records in fixed-size blocks — blocks never
	// move as the pool grows, so &chunk[i] pointers held by machines stay
	// valid. freeSlots is the recycle stack; poolCreated counts slots ever
	// materialized (slot s lives at chunks[s/poolChunk][s%poolChunk]);
	// poolLive/poolPeak track the cell's live-record high-water mark, the
	// number the bounded-memory smoke asserts on.
	streamMode  bool
	chunks      [][]sim.Task
	freeSlots   []int
	poolCreated int
	poolLive    int
	poolPeak    int

	// acc is the per-run streaming index accumulator, arena-resident so its
	// fixed-shape sketch recycles across cells.
	acc StreamingIndexes

	// Per-cell scratch, index-keyed by machine or task index.
	down       []bool
	ownerLoad  []float64
	attached   []bool
	everPlaced []bool
	waiting    []sched.Item
	statesBuf  []sched.MachineState

	// Per-cell DAG scratch (see prepDag): readiness countdown, the instant
	// a task's last parent finished (its effective arrival), the machine
	// that completed it, and the site its dependency data lives at.
	remParents []int32
	readyAt    []time.Duration
	doneHost   []int32
	homeSite   []int32
	submitted  []bool
	// inflight counts per-machine deliveries in transit (DAG data staging):
	// capacity the placement snapshot reserves so a transfer never lands on
	// a slot a later placement round already spent.
	inflight []int

	// Candidate sets as machine ids, stable across runs (the generated
	// fleet's classes depend only on the spec).
	allIDs    []int
	pinnedIDs []int
	pinnedFor string

	// Cached event closures, allocated once per arena position and replayed
	// by every subsequent cell: scheduling a cell's owner steps, arrivals
	// and faults then allocates nothing. Each closure reads current arena
	// state at fire time (and dispatches per-cell behavior through the hooks
	// below), so one closure is valid across worlds and cells; a world with
	// fewer steps or tasks simply schedules a prefix of the cache.
	ownerFns  [][]func()
	arriveFns []func()
	failFns   []func()
	repairFns []func()

	// Per-cell dispatch targets behind the cached closures; runInstance
	// rebinds them before scheduling each cell's events.
	submitHook func(i int)
	failHook   func(mi int)
	repairHook func(mi int)
}

// ownerFn returns the cached callback for machine mi's si-th owner-trace
// step, growing the cache on first use.
func (ar *runArena) ownerFn(mi, si int) func() {
	for len(ar.ownerFns) <= mi {
		ar.ownerFns = append(ar.ownerFns, nil)
	}
	fns := ar.ownerFns[mi]
	for len(fns) <= si {
		mi, si := mi, len(fns)
		fns = append(fns, func() {
			load := ar.ownerSteps[mi][si].Load
			ar.ownerLoad[mi] = load
			if !ar.down[mi] {
				ar.machines[mi].SetLocalLoad(load)
			}
		})
	}
	ar.ownerFns[mi] = fns
	return fns[si]
}

// arriveFn returns the cached arrival callback for task index i; it
// dispatches to the cell's submitHook.
func (ar *runArena) arriveFn(i int) func() {
	for len(ar.arriveFns) <= i {
		i := len(ar.arriveFns)
		ar.arriveFns = append(ar.arriveFns, func() { ar.submitHook(i) })
	}
	return ar.arriveFns[i]
}

// failFn and repairFn return machine mi's cached fault callbacks. One
// closure per machine suffices — every failure instant of a machine runs
// the same body — so a fault schedule costs zero allocations to replay.
func (ar *runArena) failFn(mi int) func() {
	for len(ar.failFns) <= mi {
		mi := len(ar.failFns)
		ar.failFns = append(ar.failFns, func() { ar.failHook(mi) })
	}
	return ar.failFns[mi]
}

func (ar *runArena) repairFn(mi int) func() {
	for len(ar.repairFns) <= mi {
		mi := len(ar.repairFns)
		ar.repairFns = append(ar.repairFns, func() { ar.repairHook(mi) })
	}
	return ar.repairFns[mi]
}

// ensureWorld makes the arena's cached world the one of (sp, run),
// regenerating from the run's derived random streams on a cache miss. The
// draw order within each derived stream is identical to a from-scratch
// build, and the streams are derived by name (not consumed sequentially),
// so replaying a cached world is indistinguishable from regenerating it.
func (ar *runArena) ensureWorld(sp *Spec, run int, horizon time.Duration) error {
	if ar.worldRun == run+1 {
		return nil
	}
	ar.worldRun = 0
	root := derivedStreams(sp, run)
	specs, slots, err := generateMachines(sp.Machines, root.Derive("machines"))
	if err != nil {
		return err
	}
	ar.specs, ar.slots = specs, slots
	nm := len(specs)

	ar.ownerSteps = growSlices(ar.ownerSteps, nm)
	if sp.Owner != nil {
		ownerRng := root.Derive("owner")
		for mi := 0; mi < nm; mi++ {
			ar.ownerSteps[mi] = workload.BurstyTrace(ownerRng, horizon,
				time.Duration(sp.Owner.MeanIdleS*float64(time.Second)),
				time.Duration(sp.Owner.MeanBusyS*float64(time.Second)),
				sp.Owner.BusyLoad)
		}
	}

	// Eager (closed) sources materialize the task population here, as part
	// of the cached world. Streaming sources draw tasks lazily per cell
	// during the simulation — from the same derived streams, so the world
	// cache still holds for machines, owner traces and faults.
	src, err := workloadSource(sp.Workload.Arrivals.Kind)
	if err != nil {
		return err
	}
	if !src.Streaming() {
		n := sp.Workload.Tasks
		for len(ar.ids) < n {
			ar.ids = append(ar.ids, fmt.Sprintf("task-%03d", len(ar.ids)))
		}
		if cap(ar.gens) < n {
			ar.gens = make([]taskGen, n)
		}
		ar.gens = ar.gens[:n]
		workRng := root.Derive("work")
		for i := range ar.gens {
			ar.gens[i] = taskGen{id: ar.ids[i], work: sp.Workload.Work.Sample(workRng)}
		}
		if con := sp.Workload.Constrained; con != nil {
			conRng := root.Derive("constraints")
			for i := range ar.gens {
				ar.gens[i].constrained = conRng.Bool(con.Fraction)
			}
		}
		if sp.Workload.Arrivals.Kind != "batch" {
			cur := src.Cursor(sp.Workload.Arrivals, root.Derive("arrivals"))
			for i := range ar.gens {
				at, ok := cur()
				if !ok {
					at = horizon // exhausted source: never arrives
				}
				ar.gens[i].arrival = at
			}
		}
		ar.generateGraph(sp.Workload.Graph, root)
	}

	ar.faultAt = growSlices(ar.faultAt, nm)
	if sp.Faults != nil {
		faultRng := root.Derive("faults")
		mtbf := sp.Faults.MTBFHours * 3600
		downFor := time.Duration(sp.Faults.DownS * float64(time.Second))
		for mi := 0; mi < nm; mi++ {
			t := 0.0
			for {
				t += faultRng.ExpFloat64() * mtbf
				at := time.Duration(t * float64(time.Second))
				if at >= horizon {
					break
				}
				ar.faultAt[mi] = append(ar.faultAt[mi], at)
				t = (at + downFor).Seconds()
			}
		}
	}
	ar.worldRun = run + 1
	return nil
}

// randomGraphWindow is how many immediately preceding tasks a "random" DAG
// task draws candidate parents from.
const randomGraphWindow = 8

// generateGraph links the cached world's tasks into the spec's dependency
// DAG and computes its ideal critical path. Only "random" consumes random
// draws (the "graph" derived stream); chain and fanout shapes are
// spec-determined. Edges always run from a lower task index to a higher one.
func (ar *runArena) generateGraph(g *GraphSpec, root *rng.Source) {
	ar.graphCP = 0
	if g == nil {
		return
	}
	n := len(ar.gens)
	ar.parents = growSlices(ar.parents, n)
	ar.children = growSlices(ar.children, n)
	addEdge := func(p, c int) {
		ar.parents[c] = append(ar.parents[c], int32(p))
		ar.children[p] = append(ar.children[p], int32(c))
	}
	switch g.Kind {
	case "chain":
		for i := 1; i < n; i++ {
			addEdge(i-1, i)
		}
	case "fanout":
		for i := 1; i < n; i++ {
			addEdge((i-1)/g.FanOut, i)
		}
	case "random":
		gr := root.Derive("graph")
		for j := 1; j < n; j++ {
			lo := j - randomGraphWindow
			if lo < 0 {
				lo = 0
			}
			for i := lo; i < j; i++ {
				if gr.Bool(g.EdgeProb) {
					addEdge(i, j)
				}
			}
		}
	}
	// Ideal critical path at unit speed ignoring transfers: a forward pass
	// works because every edge points low → high.
	ar.cpScratch = resetFloats(ar.cpScratch, n)
	for i := 0; i < n; i++ {
		cp := 0.0
		for _, p := range ar.parents[i] {
			if v := ar.cpScratch[p]; v > cp {
				cp = v
			}
		}
		cp += ar.gens[i].work
		ar.cpScratch[i] = cp
		if cp > ar.graphCP {
			ar.graphCP = cp
		}
	}
}

// growSlices resizes a slice-of-slices to n entries with every inner slice
// emptied in place (capacity kept).
func growSlices[T any](s [][]T, n int) [][]T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([][]T, n-cap(s))...)
	}
	s = s[:n]
	for i := range s {
		s[i] = s[i][:0]
	}
	return s
}

// resetBools resizes a bool scratch slice to n with every entry false.
func resetBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// resetFloats resizes a float scratch slice to n with every entry zero.
func resetFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resetFill resizes a scratch slice to n with every entry set to v.
func resetFill[T any](s []T, n int, v T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// ensureCluster provides a cluster whose registered fleet matches the
// arena's cached world: a fresh build on first use, Cluster.Reset (plus
// ReplaceSpecs when the run changed) afterwards. It reports whether the
// fleet objects were rebuilt, which invalidates cached candidate sets.
func (ar *runArena) ensureCluster(worldFresh bool) (rebuilt bool, err error) {
	if ar.cluster != nil {
		ar.cluster.Reset()
		if !worldFresh {
			return false, nil
		}
		if err := ar.cluster.ReplaceSpecs(ar.specs); err == nil {
			return false, nil
		}
		// The fleet shape moved (it cannot within one sweep, but the arena
		// does not get to assume its caller): fall through to a rebuild.
		ar.cluster = nil
	}
	ar.cluster = sim.NewCluster()
	ar.machines = ar.machines[:0]
	for _, mspec := range ar.specs {
		m, err := ar.cluster.AddMachine(mspec)
		if err != nil {
			return true, err
		}
		ar.machines = append(ar.machines, m)
	}
	return true, nil
}

// ensureCandidates builds the placement candidate sets (dense machine ids)
// once per fleet: the generated machine classes depend only on the spec, so
// these survive both run changes and cell changes.
func (ar *runArena) ensureCandidates(sp *Spec, rebuilt bool) error {
	if rebuilt || len(ar.allIDs) != len(ar.machines) {
		ar.allIDs = ar.allIDs[:0]
		for _, m := range ar.machines {
			ar.allIDs = append(ar.allIDs, m.Index())
		}
		ar.pinnedFor = ""
	}
	if con := sp.Workload.Constrained; con != nil && ar.pinnedFor != con.Class {
		class, err := arch.ParseClass(con.Class)
		if err != nil {
			return err
		}
		ar.pinnedIDs = ar.pinnedIDs[:0]
		for _, m := range ar.machines {
			if m.Spec.Class == class {
				ar.pinnedIDs = append(ar.pinnedIDs, m.Index())
			}
		}
		ar.pinnedFor = con.Class
	}
	return nil
}

// ensureTopology realizes the machine set's site model once per machine-set
// spec: the generated names and class blocks depend only on the spec, so
// the topology survives run and cell changes. ar.topo stays nil for flat
// (site-less) machine sets.
func (ar *runArena) ensureTopology(sp *Spec) {
	if ar.topoFor != nil && reflect.DeepEqual(*ar.topoFor, sp.Machines) {
		return
	}
	ms := sp.Machines
	ar.topoFor = &ms
	ar.topo = buildTopology(&ms, ar.specs)
}

// prepDag resets the per-cell DAG scratch: the readiness countdowns rebuild
// from the cached adjacency, and completion hosts / affinity sites clear to
// "unknown" for every task of the cached world.
func (ar *runArena) prepDag() {
	n := len(ar.gens)
	ar.remParents = resetFill(ar.remParents, n, int32(0))
	for i := 0; i < n && i < len(ar.parents); i++ {
		ar.remParents[i] = int32(len(ar.parents[i]))
	}
	ar.readyAt = resetFill(ar.readyAt, n, time.Duration(0))
	ar.doneHost = resetFill(ar.doneHost, n, int32(-1))
	ar.homeSite = resetFill(ar.homeSite, n, int32(-1))
	ar.submitted = resetBools(ar.submitted, n)
}

// prepCell sizes and clears the per-cell scratch buffers and the pooled
// task records' index, and resets the run accumulator. Task values
// themselves are re-initialized by the caller (they need the cell's
// completion callback). A streaming cell recycles the bounded task pool
// instead of the flat per-task arrays: every slot ever materialized is free
// again, and the per-slot scratch re-zeros lazily at acquisition.
func (ar *runArena) prepCell(streaming bool) {
	nm := len(ar.machines)
	ar.down = resetBools(ar.down, nm)
	ar.ownerLoad = resetFloats(ar.ownerLoad, nm)
	ar.inflight = resetFill(ar.inflight, nm, 0)
	ar.waiting = ar.waiting[:0]
	ar.streamMode = streaming
	ar.acc.Reset()
	if streaming {
		created := ar.poolCreated
		ar.gens = ar.gens[:created]
		ar.attached = resetBools(ar.attached, created)
		ar.everPlaced = resetBools(ar.everPlaced, created)
		// Pop order is ascending slot ids, so task IDs assign in arrival
		// order and recycling is deterministic.
		ar.freeSlots = ar.freeSlots[:0]
		for s := created - 1; s >= 0; s-- {
			ar.freeSlots = append(ar.freeSlots, s)
		}
		ar.poolLive, ar.poolPeak = 0, 0
		if ar.taskIdx == nil {
			ar.taskIdx = make(map[string]int)
		}
		// An eager cell on this arena may have rebuilt the index smaller
		// than the pool; re-cover every created slot (idempotent — the
		// id→index mapping is universal).
		if len(ar.taskIdx) < created {
			for i := 0; i < created; i++ {
				ar.taskIdx[ar.ids[i]] = i
			}
		}
		return
	}
	n := len(ar.gens)
	ar.attached = resetBools(ar.attached, n)
	ar.everPlaced = resetBools(ar.everPlaced, n)
	if cap(ar.tasks) < n {
		ar.tasks = make([]sim.Task, n)
	}
	ar.tasks = ar.tasks[:n]
	if len(ar.taskIdx) != n {
		ar.taskIdx = make(map[string]int, n)
		for i := 0; i < n; i++ {
			ar.taskIdx[ar.ids[i]] = i
		}
	}
}

// poolChunk is the streaming pool's block size: records allocate in blocks
// so growth never moves existing records (machines hold pointers into them).
const poolChunk = 512

// taskAt returns the pooled record for slot i in the current cell's mode.
func (ar *runArena) taskAt(i int) *sim.Task {
	if ar.streamMode {
		return &ar.chunks[i/poolChunk][i%poolChunk]
	}
	return &ar.tasks[i]
}

// acquireSlot hands out a free pool slot for an admitted streaming arrival,
// materializing a new one (and its id, index entry and per-slot scratch)
// when the recycle stack is empty. The caller fills gens[slot] and the task
// record; acquire only guarantees clean placement/attachment scratch.
func (ar *runArena) acquireSlot() int {
	var s int
	if n := len(ar.freeSlots); n > 0 {
		s = ar.freeSlots[n-1]
		ar.freeSlots = ar.freeSlots[:n-1]
	} else {
		s = ar.poolCreated
		ar.poolCreated++
		if s%poolChunk == 0 {
			ar.chunks = append(ar.chunks, make([]sim.Task, poolChunk))
		}
		for len(ar.ids) <= s {
			ar.ids = append(ar.ids, fmt.Sprintf("task-%03d", len(ar.ids)))
		}
		ar.taskIdx[ar.ids[s]] = s
		ar.gens = append(ar.gens, taskGen{})
		ar.attached = append(ar.attached, false)
		ar.everPlaced = append(ar.everPlaced, false)
	}
	ar.everPlaced[s] = false
	ar.attached[s] = false
	ar.poolLive++
	if ar.poolLive > ar.poolPeak {
		ar.poolPeak = ar.poolLive
	}
	return s
}

// releaseSlot returns a completed task's slot to the pool.
func (ar *runArena) releaseSlot(s int) {
	ar.poolLive--
	ar.freeSlots = append(ar.freeSlots, s)
}
