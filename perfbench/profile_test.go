package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
)

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string
		layer string
	}{
		{[]string{"runtime.mallocgc", "xability/internal/simnet.(*Endpoint).Send", "xability/internal/core.(*Server).run"}, "simnet"},
		{[]string{"math/rand.seedrand", "xability/internal/sm.New", "xability/internal/core.NewCluster"}, "setup"},
		{[]string{"xability/internal/verify.Check", "xability/internal/scenario.Execute"}, "reduce"},
		{[]string{"xability/internal/scenario.Execute", "main.serial"}, "scenario"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime.gc"},
		{[]string{"runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "runtime.sched"},
		{[]string{"runtime.usleep"}, "runtime.other"},
	}
	for _, c := range cases {
		if got, _ := attribute(c.stack); got != c.layer {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.layer)
		}
	}
}

// TestFoldProfile decodes a real CPU profile of the vclock microbenchmark:
// the partition must sum to 1 and put the work in vclock.
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	handoffOps(200_000)
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range Layers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("layer shares sum to %v", sum)
	}
	for _, l := range Layers {
		if l != "vclock" && !strings.HasPrefix(l, "runtime.") && shares[l] > shares["vclock"] {
			t.Errorf("%s share %.2f exceeds vclock's %.2f", l, shares[l], shares["vclock"])
		}
	}
}
