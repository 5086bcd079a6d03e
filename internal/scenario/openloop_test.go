package scenario

import (
	"reflect"
	"testing"
)

// TestBatchedScenarioRates runs the closed-loop slot-plane scenarios
// across a handful of seeds: the batched/pipelined protocol must stay
// exactly-once under the same adversarial schedules the per-request plane
// survives, with the strict (sequential) verifier still in force.
func TestBatchedScenarios(t *testing.T) {
	for _, name := range []string{"batch-nice", "batch-crash-failover", "batch-storm-hb"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for seed := int64(1); seed <= 5; seed++ {
			o := Execute(sc, seed)
			if !o.XAble || !o.Replied {
				t.Errorf("%s seed %d: xable=%v replied=%v report=%+v",
					name, seed, o.XAble, o.Replied, o.Report)
			}
		}
	}
}

// TestOpenLoopScenarios runs the open-loop scenarios: every arrival's
// session must complete with a reply, the run must verify under the
// concurrent per-request relaxation, and the latency summary must cover
// every completed session.
func TestOpenLoopScenarios(t *testing.T) {
	for _, name := range []string{"open-loop-nice", "open-loop-batch", "shard-open-loop"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			o := Execute(sc, seed)
			if !o.XAble || !o.Replied {
				t.Errorf("%s seed %d: xable=%v replied=%v report=%+v routing=%v",
					name, seed, o.XAble, o.Replied, o.Report, o.RoutingExact)
			}
			if o.Requests == 0 {
				t.Errorf("%s seed %d: generated no arrivals", name, seed)
			}
			if o.Latency.Count != o.Requests {
				t.Errorf("%s seed %d: latency summary covers %d sessions, %d arrived",
					name, seed, o.Latency.Count, o.Requests)
			}
			if o.EffectsInForce != o.Requests {
				t.Errorf("%s seed %d: %d effects in force for %d requests",
					name, seed, o.EffectsInForce, o.Requests)
			}
		}
	}
}

// TestBatchedDeterministicReplay pins byte-determinism of the throughput
// plane: a seeded batched/pipelined run executed twice yields deeply equal
// outcomes — Messages, SimTime, latency percentiles, effects included.
// The list crosses the new planes: closed-loop batched, batched under
// endogenous suspicion storms, open-loop batched, and the sharded
// open-loop composition.
func TestBatchedDeterministicReplay(t *testing.T) {
	for _, name := range []string{"batch-nice", "batch-storm-hb", "open-loop-batch", "shard-open-loop"} {
		sc, ok := Get(name)
		if !ok {
			t.Fatalf("scenario %q not registered", name)
		}
		for seed := int64(1); seed <= 3; seed++ {
			a := Execute(sc, seed)
			b := Execute(sc, seed)
			a.History, b.History = nil, nil
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: reruns diverge:\nfirst:  %+v\nsecond: %+v", name, seed, a, b)
			}
		}
	}
}

// TestOpenLoopHonoursDurable runs the single-cluster open loop with stable
// storage: the replicas must write their logs and the run must stay
// exactly-once.
func TestOpenLoopHonoursDurable(t *testing.T) {
	sc, ok := Get("open-loop-nice")
	if !ok {
		t.Fatal("open-loop-nice not registered")
	}
	sc.Durable = true
	for seed := int64(1); seed <= 32; seed++ {
		o := Execute(sc, seed)
		if !o.XAble || !o.Replied {
			t.Errorf("seed %d: xable=%v replied=%v report=%+v", seed, o.XAble, o.Replied, o.Report)
		}
		if o.WALAppends == 0 {
			t.Errorf("seed %d: durable open-loop run appended nothing to its logs", seed)
		}
	}
}
