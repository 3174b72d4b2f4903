package sched

import "slices"

// Locality is the topology-aware placement policy: the load-balancing triad
// of the distributed-FaaS literature (place local, forward to a nearby node
// under pressure, reject past a cap) applied to VCE placement. Items carry a
// HomeSite — the network position of their dependency data — and the policy
// prefers machines that minimize the data-transfer time from that site:
//
//   - An item with a free machine at its home site places there (best
//     speed/load score within the site).
//   - With the home site full, the item waits for a local slot while the
//     site's backlog is at most localityForwardAfter items — betting a
//     short wait beats moving the data.
//   - Past that the item forwards: it takes the free candidate machine
//     whose site has the cheapest transfer cost from home (score breaks
//     ties), accepting the data movement to shed the hot spot.
//   - With no free machine anywhere and the site's backlog past
//     localityRejectAfter, the item is dropped — removed from both outputs
//     and reported through Dropped, the backpressure signal open workloads
//     need.
//
// Items without a home site (HomeSite == 0), and every item when no topology
// was configured, place greedily like GreedyBestFit — so the policy is
// comparable to the reactive baselines on topology-free scenarios. The zero
// value is ready to use.
type Locality struct {
	round
	siteOf  []int
	cost    [][]float64
	backlog []int
	dropped []Item
}

// Pressure bounds: forward after a couple of waiters, reject only under
// pathological backlog.
const (
	localityForwardAfter = 2
	localityRejectAfter  = 128
)

// NewLocality returns a new policy; new(Locality) is the same. Configure
// the site map with SetTopology.
func NewLocality() *Locality { return new(Locality) }

// Name implements Policy.
func (*Locality) Name() string { return "locality" }

// SetTopology installs the site model: siteOf maps MachineState.Index to a
// site id, and cost[a][b] estimates the seconds needed to move one item's
// dependency payload from site a to site b. Both slices are read, never
// written, and must outlive subsequent Place calls. A nil siteOf reverts to
// greedy placement.
func (l *Locality) SetTopology(siteOf []int, cost [][]float64) {
	l.siteOf = siteOf
	l.cost = cost
}

// Dropped returns the items the last Place call rejected under backlog
// pressure, in submission order. The slice is valid until the next Place.
func (l *Locality) Dropped() []Item { return l.dropped }

// Place implements Policy.
func (l *Locality) Place(items []Item, machines []MachineState) ([]Assignment, []Item) {
	l.begin(machines)
	l.dropped = l.dropped[:0]
	nsites := len(l.cost)
	l.backlog = slices.Grow(l.backlog[:0], nsites)[:nsites]
	clear(l.backlog)

	for _, it := range items {
		home := it.HomeSite - 1
		if l.siteOf == nil || home < 0 || home >= nsites {
			// No topology or no affinity: greedy best fit.
			l.assign(it, l.pickBest(it, scan{}))
			continue
		}
		best := l.pickBest(it, scan{siteOf: l.siteOf, home: home})
		if best == nil {
			// Home site full: wait a little, forward under pressure.
			l.backlog[home]++
			if l.backlog[home] > localityForwardAfter {
				best = l.pickBest(it, scan{siteOf: l.siteOf, home: home, forward: true, cost: l.cost[home]})
			}
			if best == nil && l.backlog[home] > localityRejectAfter {
				l.dropped = append(l.dropped, it)
				continue
			}
		}
		l.assign(it, best)
	}
	return l.end()
}
