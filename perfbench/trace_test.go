package main

import (
	"math"
	"testing"
)

func TestParseTopGroupsByLayer(t *testing.T) {
	out := `File: perfbench
Type: cpu
      flat  flat%   sum%        cum   cum%
     1.81s 40.95% 40.95%      3.88s 87.78%  vce/internal/sched.pickBest /src/internal/sched/sched.go
     1.71s 38.69% 79.64%      1.72s 38.91%  vce/internal/sched.(*roundState).byID /src/internal/sched/sched.go
     0.17s  3.85% 83.49%      4.28s 96.83%  vce/internal/scenario.runInstance.func7 /src/internal/scenario/run.go
     0.10s  2.26% 85.75%      0.10s  2.26%  vce/internal/scenario.(*siteTopology).link /src/internal/scenario/topology.go
     0.08s  1.81% 87.56%      0.08s  1.81%  runtime.duffcopy /go/src/runtime/duff_amd64.s
     0.05s  1.13% 88.69%      0.05s  1.13%  internal/runtime/syscall.Syscall6 /go/src/internal/runtime/syscall/asm_linux_amd64.s
     0.04s   0.9% 89.59%      0.04s   0.9%  math.archLog /go/src/math/log_amd64.s
     0.03s  0.68% 90.27%      0.03s  0.68%  vce/internal/scenario/store.checkKey /src/internal/scenario/store/store.go
         0     0% 90.27%      4.40s 99.55%  vce/internal/vtime.(*Sim).RunUntil /src/internal/vtime/sim.go
`
	got, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sched": 79.64, "scenario": 3.85, "netsim": 2.26, "runtime": 1.81,
		"syscall": 1.13, "other": 0.9, "store": 0.68, "vtime": 0,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}
	if _, err := parseTop("no table here"); err == nil {
		t.Error("parseTop accepted output without a table")
	}
}
