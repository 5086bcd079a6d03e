package scenario

import (
	"reflect"
	"testing"
)

// TestReusedNetworkBitEqualOutcomes pins the reset-and-rerun contract: a
// run on a recycled network (the sweep workers' per-worker scratch) must
// produce an outcome bit-equal — SimTime included — to a fresh-world
// Execute of the same (scenario, seed). The scenario list crosses the
// deployment shapes reuse must survive: plain scripted runs, the CT
// consensus substrate (extra /cons endpoints), heartbeat detectors (extra
// /fd endpoints), link faults that mutate the partition plane, and
// seed-drawn random fault schedules.
func TestReusedNetworkBitEqualOutcomes(t *testing.T) {
	for _, name := range []string{
		"nice", "crash-failover", "delay-storm", "partition",
		"delay-storm-hb", "random-faults", "pb-crash-failover",
	} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		scratch := &runScratch{}
		for seed := int64(1); seed <= 5; seed++ {
			fresh := Execute(sc, seed)
			reused := run(sc, seed, RunOptions{}, scratch)
			fresh.History, reused.History = nil, nil
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s seed %d: reused-network outcome differs from fresh run:\nfresh:  %+v\nreused: %+v",
					name, seed, fresh, reused)
			}
		}
		if scratch.net == nil {
			t.Errorf("%s: scratch abandoned its network (Reset failed); reuse never engaged", name)
		}
	}
}

// TestReusedShardedNetworksBitEqualOutcomes extends the reset-and-rerun
// contract to the sharded runtime: a sweep worker recycles one network
// per replica group (simnet.ResetShared onto a fresh shared clock), and a
// run on the recycled group set must be bit-equal to a fresh-world
// Execute. The list crosses the sharded shapes reuse must survive: the
// failure-free router path, correlated crashes, the storm's link-fault
// mutation, and the batched open-loop composition.
func TestReusedShardedNetworksBitEqualOutcomes(t *testing.T) {
	for _, name := range []string{
		"shard-nice", "shard-crash-failover", "shard-storm", "shard-open-loop",
	} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		scratch := &runScratch{}
		for seed := int64(1); seed <= 5; seed++ {
			fresh := Execute(sc, seed)
			reused := run(sc, seed, RunOptions{}, scratch)
			fresh.History, reused.History = nil, nil
			if !reflect.DeepEqual(fresh, reused) {
				t.Errorf("%s seed %d: reused-network outcome differs from fresh run:\nfresh:  %+v\nreused: %+v",
					name, seed, fresh, reused)
			}
		}
		if scratch.groups == nil {
			t.Errorf("%s: scratch abandoned its group networks (ResetShared failed); reuse never engaged", name)
		}
	}
}

// TestSweepMatchesSingleRuns pins the same contract at the Sweep level:
// the distribution a parallel, network-reusing sweep folds must be exactly
// the one per-seed fresh Executes produce.
func TestSweepMatchesSingleRuns(t *testing.T) {
	sc, _ := Get("crash-failover")
	seeds := Seeds(300, 24)
	d := Sweep(sc, seeds, 4)
	if d.Runs != len(seeds) {
		t.Fatalf("runs = %d, want %d", d.Runs, len(seeds))
	}
	xable, replied := 0, 0
	for _, seed := range seeds {
		o := Execute(sc, seed)
		if o.XAble {
			xable++
		}
		if o.Replied {
			replied++
		}
	}
	if d.XAble != xable || d.Replied != replied {
		t.Errorf("sweep folded x-able %d replied %d; fresh runs give %d/%d",
			d.XAble, d.Replied, xable, replied)
	}
}
