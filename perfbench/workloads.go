package main

import (
	"fmt"
	"strconv"
	"time"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/scenario"
	"xability/internal/verify"
	"xability/internal/workload"
)

// bench is one benchmark workload: a registered scenario, so any seed the
// benchmark reports can be replayed with `xsim -scenario <Scenario> -seed N`
// (adding `-ct` when CT is set).
type bench struct {
	Name     string
	Scenario string
	// CT redeploys the scenario over the message-passing consensus
	// substrate, as `xsim -ct` does.
	CT bool
	// Warm sizes the fixed warm-up every worker process runs before its
	// first timed seed: two sweeps of this many seeds and one fresh run.
	Warm int
	// Chunk is how many seeds one timed sweep call covers. Chunks are the
	// unit of the seeds/s median and of crash recovery.
	Chunk int
}

var benches = []bench{
	{Name: "failover", Scenario: "crash-failover", Warm: 256, Chunk: 1024},
	{Name: "storm", Scenario: "delay-storm", CT: true, Warm: 128, Chunk: 256},
	{Name: "durable", Scenario: "power-cycle", Warm: 128, Chunk: 512},
	{Name: "openloop", Scenario: "open-loop-batch", Warm: 8, Chunk: 64},
}

func findBench(name string) (bench, scenario.Scenario, error) {
	for _, b := range benches {
		if b.Name == name {
			sc, ok := scenario.Get(b.Scenario)
			if !ok {
				return b, sc, fmt.Errorf("scenario %q is not registered", b.Scenario)
			}
			if b.CT {
				sc.Consensus = core.ConsensusCT
			}
			return b, sc, nil
		}
	}
	return bench{}, scenario.Scenario{}, fmt.Errorf("unknown workload %q", name)
}

// ladderRates is the fixed offered-load ladder of the openloop capacity
// probe (T11's rungs, arrivals per virtual second) and vcapP99Limit the
// virtual P99 latency a rung's median run must stay under to count as
// sustained.
var ladderRates = []float64{20_000, 40_000, 80_000, 160_000}

const vcapP99Limit = time.Millisecond

// atRate returns the open-loop scenario re-rated to the given offered load.
func atRate(sc scenario.Scenario, rate float64) scenario.Scenario {
	spec := *sc.OpenLoop
	spec.Rate = rate
	sc.OpenLoop = &spec
	sc.Name = fmt.Sprintf("%s@%.0f", sc.Name, rate)
	return sc
}

// checkRun rebuilds the verifier input of one run from the outside — the
// submitted requests, tagged the way the client or the arrival generator
// tags them, and the recorded history — and runs verify.Check on it. The
// benchmark compares its R3 verdict with the one the run reported.
func checkRun(sc scenario.Scenario, seed int64, o scenario.Outcome) verify.Report {
	run := verify.Run{
		Registry:       workload.Registry(),
		History:        o.History,
		SubmitAttempts: o.Attempts,
	}
	switch {
	case sc.OpenLoop != nil:
		spec := *sc.OpenLoop
		if spec.Accounts <= 0 {
			spec.Accounts = sc.Accounts
		}
		for _, a := range workload.GenerateOpenLoop(spec, seed) {
			run.Requests = append(run.Requests, a.Req)
		}
		run.Concurrent = true
	default:
		reqs := sc.Requests
		if sc.Workload != nil {
			reqs = workload.Generate(*sc.Workload, seed)
		}
		run.Requests = make([]action.Request, len(reqs))
		for i, r := range reqs {
			run.Requests[i] = r.WithID("client-" + strconv.Itoa(i+1))
		}
	}
	return verify.Check(run)
}
