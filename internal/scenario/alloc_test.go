package scenario

import (
	"runtime"
	"testing"
)

// bytesPerRun is testing.AllocsPerRun for heap bytes: the average bytes
// allocated per call of f, after one warm-up call, at GOMAXPROCS 1.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestNiceRunAllocBudget pins the whole pipeline's allocation bill: one
// complete nice-scenario run — cluster construction, a request through the
// protocol, settle, verdicts. Measured at ~274 objects after PR 5's
// overhaul (interned simnet indexes, pooled clock events/waiters, struct
// consensus keys, allocation-free tag encoding); the budget gives ~35%
// headroom so drift fails loudly long before the pre-PR bill (4-digit
// object counts per run) creeps back. Alloc counts are deterministic, so
// the guard is exact where wall-clock ratios could never be.
func TestNiceRunAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	Execute(sc, 1) // warm shared registries
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 380 {
		t.Fatalf("nice run allocates %.0f objects, budget 380", avg)
	}
}

// TestNiceRunReusedAllocBudget pins the sweep path: the same run on a
// per-worker recycled network (reset-and-rerun) must allocate less than a
// fresh-world run — the substrate (endpoints, interning, pools) is the
// part reuse exists to amortize.
func TestNiceRunReusedAllocBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	scratch := &runScratch{}
	run(sc, 1, RunOptions{}, scratch)
	avg := testing.AllocsPerRun(20, func() { run(sc, 2, RunOptions{}, scratch) })
	if avg > 320 {
		t.Fatalf("reused-network nice run allocates %.0f objects, budget 320", avg)
	}
}

// TestBatchedRunAllocBudget pins the slot plane's allocation bill: a full
// batch-nice run — 8 requests through batched submit, slot formation,
// pipelined commit, and per-request reply fan-out. Measured at ~731
// objects fresh / ~691 reused (≈91 per request, the whole run amortized);
// the budgets give ~30% headroom so fan-out allocations that scale with
// batch size fail loudly.
func TestBatchedRunAllocBudget(t *testing.T) {
	sc, ok := Get("batch-nice")
	if !ok {
		t.Fatal("batch-nice not registered")
	}
	Execute(sc, 1)
	avg := testing.AllocsPerRun(20, func() { Execute(sc, 2) })
	if avg > 950 {
		t.Fatalf("batched run allocates %.0f objects, budget 950", avg)
	}
	scratch := &runScratch{}
	run(sc, 1, RunOptions{}, scratch)
	avg = testing.AllocsPerRun(20, func() { run(sc, 2, RunOptions{}, scratch) })
	if avg > 900 {
		t.Fatalf("reused-network batched run allocates %.0f objects, budget 900", avg)
	}
}

// TestOpenLoopSessionAllocBudget pins the open-loop path's per-session
// bill: an open-loop-batch run divided by its session count. Measured at
// ~49 objects per session (station registration, submit, slot membership,
// reply demux, latency log); budget 65. Per-session cost is the number
// that must stay flat for 100k-session experiments to be routine.
func TestOpenLoopSessionAllocBudget(t *testing.T) {
	sc, ok := Get("open-loop-batch")
	if !ok {
		t.Fatal("open-loop-batch not registered")
	}
	sessions := Execute(sc, 2).Requests
	if sessions == 0 {
		t.Fatal("open-loop-batch generated no arrivals")
	}
	avg := testing.AllocsPerRun(10, func() { Execute(sc, 2) })
	if per := avg / float64(sessions); per > 65 {
		t.Fatalf("open-loop batched run allocates %.1f objects per session (%.0f over %d sessions), budget 65",
			per, avg, sessions)
	}
}

// TestNiceRunBytesBudget pins the nice run's heap bytes, fresh and on a
// reused network. Object counts cannot see the size of what is allocated:
// a math/rand v1 source is one object of about 4.9 KB, and a v2 PCG source
// one object of 16 bytes. Measured at ~21.1 KB fresh and ~16.8 KB reused
// with PCG streams (~63 KB and ~38 KB with v1 sources). The headroom stays
// under one v1 source, so any seeded stream that goes back to v1 fails here.
func TestNiceRunBytesBudget(t *testing.T) {
	sc, ok := Get("nice")
	if !ok {
		t.Fatal("nice not registered")
	}
	Execute(sc, 1)
	if b := bytesPerRun(20, func() { Execute(sc, 2) }); b > 26_000 {
		t.Errorf("nice run allocates %.0f bytes, budget 26000", b)
	}
	scratch := &runScratch{}
	run(sc, 1, RunOptions{}, scratch)
	if b := bytesPerRun(20, func() { run(sc, 2, RunOptions{}, scratch) }); b > 21_000 {
		t.Errorf("reused-network nice run allocates %.0f bytes, budget 21000", b)
	}
}
