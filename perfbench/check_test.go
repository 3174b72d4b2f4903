package main

import (
	"bytes"
	"math/rand/v2"
	"path/filepath"
	"strings"
	"testing"

	"vce/internal/sched"
)

func TestCheckPlaceRejectsBrokenPlacements(t *testing.T) {
	in := placeShape{name: "t", items: 4, machines: 3, slots: 2, fullFrac: 0}.input(rand.New(rand.NewPCG(1, 2)))
	in.machines[0].Slots = 1
	m0 := in.machines[0].Machine.Name
	ok := []sched.Assignment{{Task: in.items[0].Task, Machine: m0}}
	if err := checkPlace(in, ok, in.items[1:], nil); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	cases := map[string]struct {
		as      []sched.Assignment
		waiting []sched.Item
	}{
		"over free slots": {[]sched.Assignment{{Task: in.items[0].Task, Machine: m0}, {Task: in.items[1].Task, Machine: m0}}, in.items[2:]},
		"unknown machine": {[]sched.Assignment{{Task: in.items[0].Task, Machine: "nope"}}, in.items[1:]},
		"placed twice":    {[]sched.Assignment{{Task: in.items[0].Task, Machine: m0}, {Task: in.items[0].Task, Machine: in.machines[1].Machine.Name}}, in.items[2:]},
		"item lost":       {ok, in.items[2:]},
	}
	for name, c := range cases {
		if err := checkPlace(in, c.as, c.waiting, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCompareRefusesDifferentHostShapes(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"tasks_per_s": {Value: 10, Unit: "1/s"}}}
	h := host{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", CPUModel: "x"}
	if err := appendRecord(a, record{Workload: "w", Seed: 1, Host: h, Result: res}); err != nil {
		t.Fatal(err)
	}
	h.NProc, h.GOMAXPROCS = 1, 1
	if err := appendRecord(b, record{Workload: "w", Seed: 1, Host: h, Result: res}); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := runCompare([]string{a, b}, &out, &errOut); code != 1 || !strings.Contains(errOut.String(), "host-shape mismatch") {
		t.Fatalf("compare of different host shapes: exit %d, stderr %q", code, errOut.String())
	}
	if code := runCompare([]string{a, a}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "tasks_per_s") {
		t.Fatalf("compare of one host shape: exit %d, stdout %q", code, out.String())
	}
}
