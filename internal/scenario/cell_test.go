package scenario

import (
	"context"
	"testing"
)

// cellSpec is a small world for the cell tests: 16 unit-speed workstations
// with 2 slots each and no owners or faults.
func cellSpec(tasks int, horizonS float64, arrivals ArrivalSpec) *Spec {
	return &Spec{
		Name:     "cell",
		HorizonS: horizonS,
		Machines: MachineSetSpec{
			Classes: []MachineClassSpec{
				{Class: "workstation", Count: 16, Slots: 2, Speed: Dist{Kind: "fixed", Value: 1}},
			},
		},
		Workload: WorkloadSpec{
			Tasks:    tasks,
			Work:     Dist{Kind: "uniform", Min: 0.5, Max: 1.5},
			Arrivals: arrivals,
			ImageMiB: 1,
		},
		Policies: PolicyMatrix{Scheduling: []string{"greedy-best-fit"}, Migration: []string{"none"}},
		Runs:     1,
		Seed:     7,
	}
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

// TestCellAllocsIndependentOfTaskCount is a complexity budget: on a warmed
// arena a short-queue cell allocates a fixed number of objects, the same at
// 200 tasks as at 2000. Anything allocated per task (a queue buffer that
// never keeps its capacity, a per-arrival closure) shows up as a gap.
func TestCellAllocsIndependentOfTaskCount(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations make counts vary")
	}
	cases := map[string]ArrivalSpec{
		"poisson": {Kind: "poisson", RatePerS: 4},
		"diurnal": {Kind: "diurnal", RatePerS: 4, Amplitude: 0.5, PeriodS: 600},
	}
	for name, arr := range cases {
		t.Run(name, func(t *testing.T) {
			allocs := map[int]float64{}
			for _, n := range []int{200, 2000} {
				sp := cellSpec(n, 1000, arr)
				inst := Instance{Spec: sp, Sched: "greedy-best-fit", Migration: "none"}
				ar := new(runArena)
				// The first cell grows the arena; the second its recycle
				// buffers (AllocsPerRun's own warm-up call).
				if _, err := runInstance(context.Background(), inst, 0, false, nil, ar); err != nil {
					t.Fatal(err)
				}
				var err error
				allocs[n] = testing.AllocsPerRun(5, func() {
					_, err = runInstance(context.Background(), inst, 0, false, nil, ar)
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if allocs[200] != allocs[2000] {
				t.Errorf("a warmed cell allocates %v objects at 200 tasks but %v at 2000", allocs[200], allocs[2000])
			}
		})
	}
}

// TestRejectedCountsEveryUnsubmittedTask pins the single rejection count:
// in cells sized so nothing is in flight at the horizon, every offered task
// either completed or was rejected, whichever way it failed to arrive.
func TestRejectedCountsEveryUnsubmittedTask(t *testing.T) {
	fast := func(sp *Spec) *Spec {
		sp.Machines.Classes[0].Speed = Dist{Kind: "fixed", Value: 100}
		return sp
	}
	cases := map[string]*Spec{
		// Poisson arrivals at 1/s for 200 tasks over a 100 s horizon: about
		// half arrive too late.
		"closed arrivals past the horizon": fast(cellSpec(200, 100, ArrivalSpec{Kind: "poisson", RatePerS: 1})),
		// A 50/s diurnal burst into a 2-slot machine behind a 4-task queue;
		// the task cap stops arrivals long before the horizon.
		"admission refusals": func() *Spec {
			sp := cellSpec(300, 600, ArrivalSpec{Kind: "diurnal", RatePerS: 50, Amplitude: 0.5, PeriodS: 3600})
			sp.Machines.Classes[0].Count = 1
			sp.Workload.QueueLimit = 4
			return sp
		}(),
		// Ten recorded gaps offer ten of fifty tasks.
		"trace exhausted before the cap": cellSpec(50, 100, ArrivalSpec{Kind: "trace", TraceS: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}}),
		// Roots of a random DAG arrive at 1/s over 60 s; children of roots
		// that arrive too late are never submitted.
		"DAG children of late roots": func() *Spec {
			sp := fast(cellSpec(120, 60, ArrivalSpec{Kind: "poisson", RatePerS: 1}))
			sp.Workload.Graph = &GraphSpec{Kind: "random", EdgeProb: 0.3}
			return sp
		}(),
	}
	for name, sp := range cases {
		t.Run(name, func(t *testing.T) {
			inst := Instance{Spec: sp, Sched: "greedy-best-fit", Migration: "none"}
			idx, err := runInstance(context.Background(), inst, 0, false, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if idx.Rejected == 0 || idx.Completed == 0 {
				t.Fatalf("completed %d, rejected %d: the cell must both complete and reject tasks", idx.Completed, idx.Rejected)
			}
			if got := idx.Completed + idx.Rejected; got != sp.Workload.Tasks {
				t.Errorf("completed %d + rejected %d = %d, want the %d offered tasks",
					idx.Completed, idx.Rejected, got, sp.Workload.Tasks)
			}
		})
	}
}
