package core

import (
	"reflect"
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/wal"
)

// batchedCfg is the base configuration of the batched-plane tests: slot
// batching on with a short window so single-client tests form singleton
// batches quickly.
func batchedCfg(seed int64) ClusterConfig {
	return ClusterConfig{
		Replicas: 3,
		Seed:     seed,
		Batch:    BatchConfig{Enabled: true, MaxSize: 8, Window: 50 * time.Microsecond, Pipeline: 4},
	}
}

func TestBatchedNiceRunIdempotent(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(1))
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("read", "acct")); v != "100" {
		t.Errorf("read = %q, want 100", v)
	}
	rep := tc.checkRun(t)
	if !rep.R3Strict {
		t.Error("batched nice run should satisfy strict R3")
	}
}

func TestBatchedNiceRunUndoable(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(2))
	if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
		t.Errorf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90 (exactly one debit)", got)
	}
	rep := tc.checkRun(t)
	if !rep.R3Strict {
		t.Error("batched nice run should satisfy strict R3")
	}
	if n := tc.Env.InForceTotal("debit", "acct"); n != 1 {
		t.Errorf("in-force debit effects = %d, want 1", n)
	}
}

func TestBatchedSequence(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(3))
	for i := 0; i < 6; i++ {
		if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
			t.Fatalf("debit %d = %q", i, v)
		}
	}
	if got := tc.world.get("acct"); got != 40 {
		t.Errorf("balance = %d, want 40 (six debits)", got)
	}
	tc.checkRun(t)
}

func TestBatchedCrashFailover(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(4))
	done := make(chan action.Value, 1)
	clk := tc.Clock()
	clk.Go(func() {
		done <- tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	})
	clk.GoAfter(30*time.Microsecond, func() {
		tc.CrashServer(0)
		tc.ClientSuspect("replica-0", true)
		tc.SuspectEverywhere("replica-0", true)
	})
	v := <-done
	if v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90", got)
	}
	tc.checkRun(t)
}

func TestBatchedFalseSuspicion(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(5))
	done := make(chan action.Value, 1)
	clk := tc.Clock()
	clk.Go(func() {
		done <- tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
	})
	// The owner stays alive; every replica (but not the client) falsely
	// suspects it mid-slot, forcing a cleaning-mode abort and a round-2
	// takeover of the same batch.
	clk.GoAfter(120*time.Microsecond, func() {
		tc.SuspectEverywhere("replica-0", true)
	})
	clk.GoAfter(3*time.Millisecond, func() {
		tc.SuspectEverywhere("replica-0", false)
	})
	if v := <-done; v != "debited" {
		t.Fatalf("debit = %q", v)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90 (exactly one debit in force)", got)
	}
	tc.checkRun(t)
}

func TestBatchedCTConsensus(t *testing.T) {
	cfg := batchedCfg(6)
	cfg.Consensus = ConsensusCT
	tc := newBankCluster(t, cfg)
	for i := 0; i < 3; i++ {
		if v := tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct")); v != "debited" {
			t.Fatalf("debit %d = %q", i, v)
		}
	}
	if got := tc.world.get("acct"); got != 70 {
		t.Errorf("balance = %d, want 70", got)
	}
	tc.checkRun(t)
}

func TestBatchedResubmissionIdempotent(t *testing.T) {
	tc := newBankCluster(t, batchedCfg(7))
	req := tc.Client.Tag(action.NewRequest("debit", "acct"))
	v1, err := tc.Client.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	v2, err := tc.Client.Submit(req) // same ID: must not duplicate effects
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if v1 != v2 {
		t.Errorf("resubmission reply %q differs from original %q", v2, v1)
	}
	if got := tc.world.get("acct"); got != 90 {
		t.Errorf("balance = %d, want 90 (R1)", got)
	}
}

func TestCostModelChargesVirtualTime(t *testing.T) {
	mk := func(costs CostModel) time.Duration {
		cfg := ClusterConfig{Replicas: 3, Seed: 8, Costs: costs}
		tc := newBankCluster(t, cfg)
		clk := tc.Clock()
		clk.Enter()
		// Time the submissions only: the cluster was built detached, so
		// the clock may have run its periodic loops before Enter.
		start := clk.Now()
		for i := 0; i < 4; i++ {
			tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
		}
		d := clk.Now() - start
		clk.Exit()
		return d
	}
	free := mk(CostModel{})
	charged := mk(CostModel{Consensus: 200 * time.Microsecond, Exec: 100 * time.Microsecond})
	if charged <= free {
		t.Errorf("charged run took %v, free run %v: cost model should stretch virtual time", charged, free)
	}
}

// TestBatchedWriteAhead pins the slot plane's write-ahead discipline on
// stable storage. Every replica's server log must hold a round record for
// every slot round it attempted, ahead of the fin records of the results a
// round it owned fixed; a req record ahead of every fin; and a fin for
// every request it marked done. Recovery from the log must rebuild the
// replica's done/result set and round guards. A false suspicion of the
// first owner while slow executions hold its slots open makes the
// cleaners take over later rounds, so takeover attempts are covered too.
func TestBatchedWriteAhead(t *testing.T) {
	for _, mode := range []ConsensusMode{ConsensusLocal, ConsensusCT} {
		cfg := batchedCfg(9)
		cfg.Durable = true
		cfg.Consensus = mode
		// Slow executions keep slots open across cleaner passes.
		cfg.Costs = CostModel{Exec: 2 * time.Millisecond}
		tc := newBankCluster(t, cfg)
		clk := tc.Clock()
		done := make(chan struct{})
		clk.Go(func() {
			for i := 0; i < 4; i++ {
				tc.Client.SubmitUntilSuccess(action.NewRequest("debit", "acct"))
			}
			close(done)
		})
		clk.GoAfter(120*time.Microsecond, func() { tc.SuspectEverywhere("replica-0", true) })
		clk.GoAfter(3*time.Millisecond, func() { tc.SuspectEverywhere("replica-0", false) })
		<-done
		if got := tc.world.get("acct"); got != 60 {
			t.Errorf("mode %v: balance = %d, want 60 (four debits)", mode, got)
		}

		// Holding the clock freezes every replica between steps; with free
		// syncs each persist and its in-memory write share one step.
		clk.Enter()
		takeovers := 0
		for _, s := range tc.Servers {
			var recs []wal.Record
			s.log.Replay(func(r wal.Record) { recs = append(recs, r) })
			at := make(map[wal.Record]int, len(recs))
			reqAt := make(map[string]int)
			for i, r := range recs {
				switch r.Kind {
				case recRequest:
					if _, seen := reqAt[r.Key]; !seen {
						reqAt[r.Key] = i
					}
				case recRound:
					at[wal.Record{Kind: recRound, Key: r.Key, Round: r.Round}] = i
					if r.Round > 1 {
						takeovers++
					}
				case recFinish:
					at[wal.Record{Kind: recFinish, Key: r.Key}] = i
					if j, ok := reqAt[r.Key]; !ok || j > i {
						t.Errorf("mode %v %s: fin %s at %d has no req record before it", mode, s.id, r.Key, i)
					}
				}
			}
			s.mu.Lock()
			for k := range s.rounds {
				if _, ok := at[wal.Record{Kind: recRound, Key: k.ID, Round: k.Round}]; !ok {
					t.Errorf("mode %v %s: attempt %v has no round record", mode, s.id, k)
				}
			}
			for reqID, st := range s.active {
				if !st.done {
					continue
				}
				fin, ok := at[wal.Record{Kind: recFinish, Key: reqID}]
				if !ok {
					t.Errorf("mode %v %s: %s marked done without a fin record", mode, s.id, reqID)
					continue
				}
				// The committing round of its slot, if this replica owned
				// it, was written ahead of the result it fixed.
				id := slotID(st.doneSlot)
				for r := 1; r <= MaxRound; r++ {
					ov, owned := s.cons.Object(ownerKey(id, r)).Read()
					if !owned {
						break
					}
					if out, _ := s.cons.Object(outcomeKey(id, r)).Read(); out == nil || out.(slotOutcome).Outcome != "commit" {
						continue
					}
					if ov.(ownerDecision).Owner == s.id {
						if i, ok := at[wal.Record{Kind: recRound, Key: id, Round: int32(r)}]; !ok || i > fin {
							t.Errorf("mode %v %s: round %d of %s not written ahead of fin %s", mode, s.id, r, id, reqID)
						}
					}
					break
				}
			}
			s.mu.Unlock()
			if got, want := serverRecoveredState(s.log), serverDurableState(s); !reflect.DeepEqual(got, want) {
				t.Errorf("mode %v %s: recovery diverges from the live replica\nrecovered: %+v\nlive:      %+v", mode, s.id, got, want)
			}
		}
		clk.Exit()
		if takeovers == 0 {
			t.Errorf("mode %v: no round-2 attempt recorded; the false suspicion no longer forces a takeover", mode)
		}
	}
}
