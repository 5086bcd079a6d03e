// Package workload generates the request sequences, action mixes, and
// fault schedules the experiment harness (cmd/xbench, bench_test.go) drives
// the protocols with.
//
// All generation is seeded: a (Spec, seed) pair always produces the same
// workload, so experiment rows are reproducible.
package workload

import (
	"fmt"
	"math/rand/v2"
	"time"

	"xability/internal/action"
)

// Mix describes the action mix of a workload as weights; weights need not
// sum to anything in particular.
type Mix struct {
	// Reads weights the idempotent deterministic action ("read").
	Reads int
	// Tokens weights the idempotent non-deterministic action ("token").
	Tokens int
	// Debits weights the undoable action ("debit").
	Debits int
}

// DefaultMix is a balanced three-way mix.
var DefaultMix = Mix{Reads: 1, Tokens: 1, Debits: 1}

// Spec describes a workload.
type Spec struct {
	// Requests is the number of requests in the sequence.
	Requests int
	// Mix is the action mix.
	Mix Mix
	// Accounts is the key space size for inputs.
	Accounts int
	// FailProb arms environment failure injection for the base actions.
	FailProb float64
	// FailBudget bounds injected failures per action (eventual success).
	FailBudget int
}

// Request is one generated request.
type Request struct {
	Req action.Request
}

// Generate produces the request sequence for a spec.
func Generate(spec Spec, seed int64) []action.Request {
	rng := rand.New(rand.NewPCG(0, uint64(seed)))
	if spec.Requests <= 0 {
		spec.Requests = 10
	}
	if spec.Accounts <= 0 {
		spec.Accounts = 4
	}
	total := spec.Mix.Reads + spec.Mix.Tokens + spec.Mix.Debits
	if total == 0 {
		spec.Mix = DefaultMix
		total = 3
	}
	out := make([]action.Request, 0, spec.Requests)
	for i := 0; i < spec.Requests; i++ {
		acct := action.Value(fmt.Sprintf("acct-%d", rng.IntN(spec.Accounts)))
		pick := rng.IntN(total)
		switch {
		case pick < spec.Mix.Reads:
			out = append(out, action.NewRequest("read", acct))
		case pick < spec.Mix.Reads+spec.Mix.Tokens:
			out = append(out, action.NewRequest("token", acct))
		default:
			out = append(out, action.NewRequest("debit", acct))
		}
	}
	return out
}

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	// After is the delay from workload start.
	After time.Duration
	// Crash names a replica index to crash; -1 means no crash.
	Crash int
	// Suspect injects a false suspicion: observer replica index and target
	// replica index; both -1 means none.
	SuspectObserver, SuspectTarget int
	// Clear reverses a previously injected suspicion.
	Clear bool
}

// FaultSchedule is an ordered fault script.
type FaultSchedule []FaultEvent

// CrashSchedule builds a schedule that crashes the given replica once.
func CrashSchedule(replica int, after time.Duration) FaultSchedule {
	return FaultSchedule{{After: after, Crash: replica, SuspectObserver: -1, SuspectTarget: -1}}
}

// FlappingSchedule builds a schedule of transient false suspicions of
// replica 0 by every other replica, n pulses of the given width.
func FlappingSchedule(replicas, pulses int, width time.Duration) FaultSchedule {
	var out FaultSchedule
	t := width
	for p := 0; p < pulses; p++ {
		for obs := 1; obs < replicas; obs++ {
			out = append(out, FaultEvent{After: t, Crash: -1, SuspectObserver: obs, SuspectTarget: 0})
			out = append(out, FaultEvent{After: t + width, Crash: -1, SuspectObserver: obs, SuspectTarget: 0, Clear: true})
		}
		t += 2 * width
	}
	return out
}

// Registry returns the standard benchmark vocabulary: idempotent read and
// token, undoable debit.
func Registry() *action.Registry {
	reg := action.NewRegistry()
	reg.MustRegister("read", action.KindIdempotent)
	reg.MustRegister("token", action.KindIdempotent)
	reg.MustRegister("debit", action.KindUndoable)
	return reg
}
