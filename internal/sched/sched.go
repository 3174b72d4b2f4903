// Package sched implements the execution-layer scheduling machinery of §4.3:
// bid ranking for the Figure 3 protocol, placement policies (the
// throughput-first policy of the paper against a per-job greedy baseline),
// and the aging priority queue that prevents starvation ("as a task waits to
// be dispatched its priority will be increased to insure it will eventually
// be dispatched even if that results in a globally suboptimal schedule").
package sched

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"time"

	"vce/internal/arch"
	"vce/internal/taskgraph"
)

// Bid is one daemon's answer in the bidding protocol: "Each bid includes the
// current load of the bidding machine" (§5).
type Bid struct {
	// Machine is the bidding machine's name.
	Machine string
	// Load is the machine's current load (runnable work per unit
	// capacity; 0 is idle).
	Load float64
	// Capacity is how many additional VCE tasks the machine will accept.
	Capacity int
}

// RankBids orders bids by ascending load (ties by name) — the prototype
// group leader's sortBidsByLoad.
func RankBids(bids []Bid) []Bid {
	out := append([]Bid(nil), bids...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Load != out[j].Load {
			return out[i].Load < out[j].Load
		}
		return out[i].Machine < out[j].Machine
	})
	return out
}

// SelectBest picks machines for n task instances from the ranked bids,
// honouring per-bid capacity. Allocation is breadth-first across the ranking
// — one instance per machine per pass, least-loaded first — so multiple
// instances spread over "the least loaded processors" (plural, §5) instead
// of piling onto the single best bidder. ok=false reproduces the prototype's
// allocation failure: "If the group leader receives fewer responses than
// needed a failure indication is sent to the execution program."
func SelectBest(bids []Bid, n int) (machines []string, ok bool) {
	ranked := RankBids(bids)
	remaining := make([]int, len(ranked))
	total := 0
	for i, b := range ranked {
		remaining[i] = b.Capacity
		total += b.Capacity
	}
	for len(machines) < n && total > 0 {
		for i := range ranked {
			if len(machines) == n {
				break
			}
			if remaining[i] > 0 {
				remaining[i]--
				total--
				machines = append(machines, ranked[i].Machine)
			}
		}
	}
	return machines, len(machines) == n
}

// MachineState is a scheduler's snapshot of one machine.
type MachineState struct {
	// Machine is the hardware description.
	Machine arch.Machine
	// Load is current utilization (local + remote demand).
	Load float64
	// Slots is how many additional tasks this machine accepts in this
	// placement round.
	Slots int
	// Index is the caller-assigned dense id that Item.CandidateIDs names
	// (e.g. the simulator's Machine.Index). It is required: every state of
	// a round must carry a distinct non-negative Index.
	Index int

	// scarce is UtilizationFirst's internal reservation count: waiting
	// constrained items for which this machine is the only candidate.
	scarce int
}

// Item is one task instance awaiting placement.
type Item struct {
	// Task is the owning task.
	Task taskgraph.TaskID
	// Candidates is ignored by every policy. It is kept only so callers
	// that still set it compile; CandidateIDs is the candidate list.
	Candidates []string
	// CandidateIDs lists the admissible machines (already filtered by
	// requirements) as MachineState.Index values. Ids naming no machine of
	// the round are skipped, and among equal scores the earliest candidate
	// wins.
	CandidateIDs []int
	// Work is the instance's expected work, used by cost heuristics.
	Work float64
	// HomeSite is the item's data-affinity site plus one — the site its
	// dependency outputs live at, as a 1-based id into the site table a
	// topology-aware policy was configured with (Locality.SetTopology).
	// Zero means no data affinity; policies without topology ignore it.
	HomeSite int
}

// Assignment binds a task instance to a machine.
type Assignment struct {
	// Task identifies the placed item.
	Task taskgraph.TaskID
	// Machine and Index are the chosen host's name and MachineState.Index.
	Machine string
	Index   int
}

// Policy places a batch of task instances onto machines.
type Policy interface {
	// Name identifies the policy in experiment tables.
	Name() string
	// Place returns assignments and the items it chose to leave waiting.
	// Implementations must not mutate items. The machines slice is the
	// policy's working state for the round — Slots (and load estimates)
	// are consumed in place as assignments are made, so callers that need
	// the snapshot afterwards must pass a copy. Both returned slices are
	// policy-owned buffers: the assignments are valid until the next
	// Place call, the waiting items until the one after, so a caller may
	// feed the waiting output straight back in.
	Place(items []Item, machines []MachineState) ([]Assignment, []Item)
}

// round is a policy's reusable round storage: the Index table, the
// placement order, and the output buffers. Each policy embeds one, so the
// zero value and the New constructor build the same policy, which places
// rounds allocation-free once its buffers have grown. A policy must not
// place concurrently with itself.
//
// The waiting buffer is double-buffered because of how batch callers
// loop: round N's waiting output is round N+1's items input, so the policy
// must never write an output over the slice it is still reading.
// Assignments have no such feedback, so one buffer suffices.
type round struct {
	byIndex []*MachineState
	order   []int
	placed  []Assignment
	waiting [2][]Item
	flip    int
}

// begin opens a round over machines: it indexes them by Index and empties
// the output buffers.
func (r *round) begin(machines []MachineState) {
	n := 0
	for i := range machines {
		n = max(n, machines[i].Index+1)
	}
	r.byIndex = slices.Grow(r.byIndex[:0], n)[:n]
	clear(r.byIndex)
	for i := range machines {
		r.byIndex[machines[i].Index] = &machines[i]
	}
	r.placed = r.placed[:0]
	r.flip ^= 1
	r.waiting[r.flip] = r.waiting[r.flip][:0]
}

// end returns the round's assignments and waiting items.
func (r *round) end() ([]Assignment, []Item) { return r.placed, r.waiting[r.flip] }

// machine resolves a candidate id to its round state, nil when no machine
// of the round carries that Index.
func (r *round) machine(id int) *MachineState {
	if uint(id) >= uint(len(r.byIndex)) {
		return nil
	}
	return r.byIndex[id]
}

// assign places it on ms, consuming a slot and raising the load estimate;
// a nil ms leaves it waiting.
func (r *round) assign(it Item, ms *MachineState) {
	if ms == nil {
		r.waiting[r.flip] = append(r.waiting[r.flip], it)
		return
	}
	ms.Slots--
	ms.Load += loadIncrement(it, ms.Machine)
	r.placed = append(r.placed, Assignment{Task: it.Task, Machine: ms.Machine.Name, Index: ms.Index})
}

// scan narrows pickBest's candidate scan. The zero scan considers every
// free candidate.
type scan struct {
	// skipReserved passes over machines holding scarce reservations
	// (UtilizationFirst's flexible items).
	skipReserved bool
	// With siteOf set (indexed by MachineState.Index), only machines at
	// site home are considered, or with forward only machines away from it;
	// forward targets rank by cost[site] first, an unknown site last.
	siteOf  []int
	home    int
	forward bool
	cost    []float64
}

// pickBest returns the item's best candidate with a free slot among those
// s admits: the lowest cost (always zero outside forward scans), then the
// highest speed/(1+load) score. Full ties keep the earliest candidate. Nil
// means no candidate qualifies.
func (r *round) pickBest(it Item, s scan) *MachineState {
	var best *MachineState
	bestScore, bestCost := -1.0, 0.0
	if s.forward {
		bestCost = math.MaxFloat64
	}
	for _, id := range it.CandidateIDs {
		ms := r.machine(id)
		if ms == nil || ms.Slots <= 0 || s.skipReserved && ms.scarce > 0 {
			continue
		}
		c := 0.0
		if s.siteOf != nil {
			site := -1
			if id < len(s.siteOf) {
				site = s.siteOf[id]
			}
			if (site == s.home) == s.forward {
				continue
			}
			if s.forward {
				c = math.MaxFloat64
				if site >= 0 && site < len(s.cost) {
					c = s.cost[site]
				}
			}
		}
		if score := ms.Machine.Speed / (1 + ms.Load); c < bestCost || c == bestCost && score > bestScore {
			best, bestScore, bestCost = ms, score, c
		}
	}
	return best
}

// GreedyBestFit optimizes each job in isolation: every item takes the
// fastest, least-loaded admissible machine available. This is the baseline
// §4.3 argues against — it will burn the uniquely-capable "machine A" on a
// task that could run anywhere. The zero value is ready to use.
type GreedyBestFit struct{ round }

// NewGreedyBestFit returns a new policy; new(GreedyBestFit) is the same.
func NewGreedyBestFit() *GreedyBestFit { return new(GreedyBestFit) }

// Name implements Policy.
func (*GreedyBestFit) Name() string { return "greedy-best-fit" }

// Place implements Policy.
func (p *GreedyBestFit) Place(items []Item, machines []MachineState) ([]Assignment, []Item) {
	p.begin(machines)
	for _, it := range items {
		p.assign(it, p.pickBest(it, scan{}))
	}
	return p.end()
}

// UtilizationFirst is the paper's policy: "tend to give preference to
// schedules that maximize overall resource utilization (and therefore
// maximize system throughput) rather than schedules that optimize the
// performance of any single job."
//
// Constrained items (fewest candidate machines) place first; flexible items
// then avoid machines that are the unique hosts of still-waiting constrained
// items, waiting instead if no other machine is free — the §4.3 example where
// the portable task yields machine A and "should be made to wait" because it
// "can be used to occupy a workstation if one becomes idle." The zero value
// is ready to use.
type UtilizationFirst struct{ round }

// NewUtilizationFirst returns a new policy; new(UtilizationFirst) is the
// same.
func NewUtilizationFirst() *UtilizationFirst { return new(UtilizationFirst) }

// Name implements Policy.
func (*UtilizationFirst) Name() string { return "utilization-first" }

// Place implements Policy.
func (p *UtilizationFirst) Place(items []Item, machines []MachineState) ([]Assignment, []Item) {
	p.begin(machines)
	// A machine's scarce count tracks waiting constrained items for which
	// it is the only candidate.
	p.order = p.order[:0]
	uniform := true
	for i, it := range items {
		if len(it.CandidateIDs) == 1 {
			if ms := p.machine(it.CandidateIDs[0]); ms != nil {
				ms.scarce++
			}
		}
		uniform = uniform && len(it.CandidateIDs) == len(items[0].CandidateIDs)
		p.order = append(p.order, i)
	}
	// Scarcest-capability first; ties keep submission order.
	if !uniform {
		slices.SortStableFunc(p.order, func(a, b int) int {
			return cmp.Compare(len(items[a].CandidateIDs), len(items[b].CandidateIDs))
		})
	}
	for _, i := range p.order {
		it := items[i]
		constrained := len(it.CandidateIDs) == 1
		// Flexible items skip machines reserved for tasks that can run
		// nowhere else.
		best := p.pickBest(it, scan{skipReserved: !constrained})
		if best != nil && constrained {
			best.scarce--
		}
		p.assign(it, best)
	}
	return p.end()
}

// loadIncrement estimates how much an item raises a machine's load, scaling
// inversely with speed so fast machines absorb work more gracefully.
func loadIncrement(it Item, m arch.Machine) float64 {
	if m.Speed <= 0 {
		return 1
	}
	if it.Work <= 0 {
		return 1 / m.Speed
	}
	return it.Work / (it.Work + m.Speed) / m.Speed * 2
}

// AgingQueue is the §4.3 anti-starvation dispatcher queue: effective
// priority = base priority + aging rate × wait time, so every task is
// eventually dispatched.
type AgingQueue struct {
	// rate is priority points added per second of waiting.
	rate    float64
	entries []agingEntry
}

type agingEntry struct {
	id       string
	base     float64
	enqueued time.Duration
}

// NewAgingQueue returns a queue with the given aging rate (points/second).
// A zero rate disables aging (pure static priority — the starvation-prone
// baseline the experiments compare against).
func NewAgingQueue(rate float64) *AgingQueue {
	return &AgingQueue{rate: rate}
}

// Push enqueues a task with a base priority at virtual time now.
func (q *AgingQueue) Push(id string, base float64, now time.Duration) {
	q.entries = append(q.entries, agingEntry{id: id, base: base, enqueued: now})
}

// Len returns the queued count.
func (q *AgingQueue) Len() int { return len(q.entries) }

// Effective returns the entry's current effective priority.
func (q *AgingQueue) effective(e agingEntry, now time.Duration) float64 {
	return e.base + q.rate*(now-e.enqueued).Seconds()
}

// Peek returns the id that Pop would return, without removing it.
func (q *AgingQueue) Peek(now time.Duration) (string, bool) {
	idx := q.best(now)
	if idx < 0 {
		return "", false
	}
	return q.entries[idx].id, true
}

// Pop removes and returns the highest effective-priority task. FIFO order
// breaks ties, which itself prevents starvation among equal priorities.
func (q *AgingQueue) Pop(now time.Duration) (string, bool) {
	idx := q.best(now)
	if idx < 0 {
		return "", false
	}
	id := q.entries[idx].id
	q.entries = append(q.entries[:idx], q.entries[idx+1:]...)
	return id, true
}

func (q *AgingQueue) best(now time.Duration) int {
	idx := -1
	bestP := 0.0
	for i, e := range q.entries {
		p := q.effective(e, now)
		if idx < 0 || p > bestP {
			idx = i
			bestP = p
		}
	}
	return idx
}

// Boost raises a queued task's base priority — the §4.3 "authorized users
// will be able to modify the priorities of particular applications" hook.
// It reports whether the task was found.
func (q *AgingQueue) Boost(id string, delta float64) bool {
	for i := range q.entries {
		if q.entries[i].id == id {
			q.entries[i].base += delta
			return true
		}
	}
	return false
}

// WaitTimes reports each queued task's wait so far, for starvation metrics.
func (q *AgingQueue) WaitTimes(now time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration, len(q.entries))
	for _, e := range q.entries {
		out[e.id] = now - e.enqueued
	}
	return out
}
