package main

import (
	"cmp"
	"runtime"
	"slices"
	"strconv"
	"time"

	"xability/internal/consensus"
	"xability/internal/core"
	"xability/internal/exper"
	"xability/internal/fd"
	"xability/internal/reduce"
	"xability/internal/simnet"
	"xability/internal/vclock"
	"xability/internal/wal"
	"xability/internal/workload"
)

// micros are the layer microbenchmarks. Each runs n operations of one
// layer's API in isolation; micro_test.go exposes the same functions to
// `go test -bench`.
var micros = []struct {
	name string
	ops  func(n int)
}{
	{"vclock.handoff", handoffOps},
	{"simnet.sendrecv", sendRecvOps},
	{"fd.heartbeat", heartbeatOps},
	{"wal.append", walAppendOps},
	{"consensus.decide", decideOps},
	{"reduce.xable", xableOps},
	{"setup.new_cluster", newClusterOps},
}

// handoffOps: an attached goroutine spawns a child that sleeps 1µs while
// the parent sleeps 2µs — one Go, two parks and two wakes per operation.
func handoffOps(n int) {
	clk := vclock.NewVirtual()
	clk.Enter()
	for i := 0; i < n; i++ {
		clk.Go(func() { clk.Sleep(time.Microsecond) })
		clk.Sleep(2 * time.Microsecond)
	}
	clk.Exit()
}

// sendRecvOps: one message through the network at the scenarios' default
// delay bound, received by its destination.
func sendRecvOps(n int) {
	net := simnet.New(simnet.Config{Seed: 1, MaxDelay: 200 * time.Microsecond})
	defer net.Close()
	src := net.Register("a")
	dst := net.Register("b")
	for i := 0; i < n; i++ {
		src.Send("b", "m", nil)
		if _, ok := dst.Recv(); !ok {
			panic("simnet: recv failed")
		}
	}
}

// heartbeatOps: one heartbeat interval of three ◇P heartbeat detectors
// monitoring each other, nine heartbeats sent and received, at the
// scenarios' 500µs interval. Every detector endpoint is registered before
// the first detector starts, so no beat can reach an unknown process.
func heartbeatOps(n int) {
	const interval = 500 * time.Microsecond
	net := simnet.New(simnet.Config{Seed: 1, MaxDelay: 200 * time.Microsecond})
	ids := []simnet.ProcessID{"r0", "r1", "r2"}
	eps := make([]*simnet.Endpoint, len(ids))
	for i, id := range ids {
		eps[i] = net.Register(fd.FDEndpoint(id))
	}
	clk := net.Clock()
	clk.Enter()
	hbs := make([]*fd.Heartbeat, len(ids))
	for i, id := range ids {
		hbs[i] = fd.NewHeartbeat(id, eps[i], ids, fd.HeartbeatConfig{Interval: interval})
		hbs[i].Start()
	}
	clk.Sleep(time.Duration(n) * interval)
	for _, hb := range hbs {
		hb.Stop()
	}
	net.Close()
	clk.Exit()
	net.Quiesce()
}

// walAppendOps: one record appended to a log under a 10µs sync tariff.
func walAppendOps(n int) {
	clk := vclock.NewVirtual()
	log := wal.NewStore(clk, wal.Config{SyncLatency: 10 * time.Microsecond}).Log("replica-0")
	clk.Enter()
	for i := 0; i < n; i++ {
		log.Append(wal.Record{Kind: "req", Key: "client-1", Round: int32(i)})
	}
	clk.Exit()
}

// decideOps: one Chandra–Toueg consensus instance decided by three nodes
// with one proposer (T4's message-passing row).
func decideOps(n int) {
	net := simnet.New(simnet.Config{Seed: 1, MaxDelay: 50 * time.Microsecond})
	ids := []simnet.ProcessID{"n0", "n1", "n2"}
	var nodes []*consensus.Node
	for _, id := range ids {
		node := consensus.NewNode(id, net.Register(consensus.ConsEndpoint(id)), ids, fd.NewScripted(net))
		node.Start()
		nodes = append(nodes, node)
	}
	for i := 0; i < n; i++ {
		if got := nodes[0].Propose(consensus.At("k"+strconv.Itoa(i)), i); got != i {
			panic("consensus: decided another proposal")
		}
	}
	for _, node := range nodes {
		node.Stop()
	}
	net.Close()
}

// xableOps: the greedy checker on T6's synthetic history of 80 requests
// whose executions are each tried three times.
func xableOps(n int) {
	reg := workload.Registry()
	h, specs := exper.SyntheticHistory(reg, 80, 3)
	norm := reduce.New(reg)
	for i := 0; i < n; i++ {
		if ok, _ := norm.XAbleTo(h, specs); !ok {
			panic("reduce: synthetic history is not x-able")
		}
	}
}

// newClusterOps: one crash-failover cluster (three replicas, scripted
// detectors, local consensus) built and torn down the way the scenario
// executors do it: construct, attach, stop, detach, quiesce. Heartbeat
// clusters are left out: their detectors start sending while later
// replicas are still being registered, which can panic a fresh network
// (heartbeatOps measures the detectors on their own).
func newClusterOps(n int) {
	for i := 0; i < n; i++ {
		seed := int64(i + 1)
		c := core.NewCluster(core.ClusterConfig{
			Replicas: 3,
			Seed:     seed,
			Net:      simnet.Config{Seed: seed, MaxDelay: 200 * time.Microsecond},
			Registry: workload.Registry(),
			Setup:    workload.NewBank(1, 100).Setup(),
		})
		clk := c.Clock()
		clk.Enter()
		c.Stop()
		clk.Exit()
		c.Net.Quiesce()
	}
}

// micro runs every microbenchmark: the batch size doubles until a batch
// takes 20ms, then five batches are timed and the median batch reported
// per operation, with its heap allocations.
func micro() {
	for _, m := range micros {
		n := 1
		for {
			calib := stopwatch()
			m.ops(n)
			if calib() >= 20*time.Millisecond {
				break
			}
			n *= 2
		}
		type batch struct{ ns, allocs, bytes float64 }
		var batches []batch
		for i := 0; i < 5; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			elapsed := stopwatch()
			m.ops(n)
			ns := elapsed()
			runtime.ReadMemStats(&after)
			batches = append(batches, batch{
				ns:     float64(ns.Nanoseconds()) / float64(n),
				allocs: float64(after.Mallocs-before.Mallocs) / float64(n),
				bytes:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
			})
		}
		slices.SortFunc(batches, func(a, b batch) int { return cmp.Compare(a.ns, b.ns) })
		med := batches[len(batches)/2]
		emit(map[string]any{"ev": "micro", "name": m.name, "ns_op": med.ns, "allocs_op": med.allocs, "bytes_op": med.bytes})
	}
}
