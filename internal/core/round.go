// The round engine: the per-instance round mechanism of Figures 6–7 that
// both protocol planes drive. An instance is a request (the per-request
// plane of protocol.go, slot −1) or a slot of the batched log (batch.go,
// consensus ID slotID(n)); each primitive below is keyed by the instance's
// consensus ID and exists once. The planes differ only in what a round
// carries (one request, or a batch with a result vector), in how its
// outcome is agreed (resultCoordination vs slotCoordination), and in who
// answers the clients of a committed round.
package core

import (
	"xability/internal/action"
	"xability/internal/consensus"
	"xability/internal/obs"
	"xability/internal/wal"
)

// claimRound is the round guard and the ownership agreement of one round:
// each replica attempts an (instance, round) pair at most once, writing
// the attempt ahead of its ownership proposal, and reports the decided
// owner (ok=false: the guard suppressed the attempt, the round is past
// MaxRound, or the replica stopped).
//
// Without the guard a re-submission of an in-progress request to the
// replica that owns its round would read back its own ownership decision
// and execute the round a second time — a duplicate committed execution
// the calculus cannot reduce away. (A storm-tossed heartbeat client wraps
// its failover cycle back to the owner and triggers exactly that.) The
// write-ahead keeps the guard across a crash between here and the
// decision: otherwise the restarted replica re-proposes, reads back its
// own ownership, and executes the round twice.
func (s *Server) claimRound(id string, round int, bid ownerDecision) (ownerDecision, bool) {
	if s.isStopped() || round > MaxRound {
		return ownerDecision{}, false
	}
	key := ownerKey(id, round)
	s.mu.Lock()
	if s.rounds[key] {
		s.mu.Unlock()
		return ownerDecision{}, false
	}
	s.rounds[key] = true
	s.mu.Unlock()
	if s.log != nil {
		s.log.Append(wal.Record{Kind: recRound, Key: id, Round: key.Round})
	}
	od, ok := s.propose(key, bid).(ownerDecision)
	return od, ok
}

// latestRound is the latest-round scan: "let last-round be the largest
// defined index in owner-agreement" (0 when round 1 is undecided), with
// that round's ownership decision.
func (s *Server) latestRound(id string) (int, ownerDecision) {
	last := 0
	var od ownerDecision
	for r := 1; r <= MaxRound; r++ {
		v, decided := s.cons.Object(ownerKey(id, r)).Read()
		if !decided {
			break
		}
		last = r
		od = v.(ownerDecision)
	}
	return last, od
}

// committedRound is the committed-round scan: walk the instance's rounds in
// order and return the ownership decision and agreed value of the first
// round whose result or outcome agreement (space) fixed a result. The walk
// ends at the first round nobody owns yet. Aborted rounds are skipped; so
// is a round whose agreement this replica has not learned, unless inOrder
// is set — the slot plane never applies a slot past a round still open.
func (s *Server) committedRound(id string, space consensus.Space, inOrder bool) (ownerDecision, any, bool) {
	for r := 1; r <= MaxRound; r++ {
		ov, owned := s.cons.Object(ownerKey(id, r)).Read()
		if !owned {
			break
		}
		v, agreed := s.cons.Object(consensus.Key{Space: space, ID: id, Round: int32(r)}).Read()
		if !agreed {
			if inOrder {
				break
			}
			continue
		}
		if committed(v) {
			od, _ := ov.(ownerDecision)
			return od, v, true
		}
	}
	return ownerDecision{}, nil, false
}

// committed reports whether an agreed result or outcome fixes its round:
// a non-empty idempotent result, or a commit.
func committed(v any) bool {
	switch d := v.(type) {
	case action.Value:
		return d != EmptyResult
	case outcomeDecision:
		return d.Outcome == "commit"
	case slotOutcome:
		return d.Outcome == "commit"
	}
	return false
}

// fenceCancel is the abort fence for one undoable member of an aborted
// round: fence, then cancel under the round's tag (testcancel, §5.3). The
// abort decision means this round's effect must never be in force. The
// cancel alone only rolls back — without the fence, an owner still inside
// execute-until-success reactivates the cancelled transaction on its next
// retry and re-applies the effect; if it then crashes before reading the
// abort decision, that effect is orphaned in force next to the succeeding
// round's commit.
func (s *Server) fenceCancel(req action.Request, round int) {
	exec := s.taggedFor(req, round)
	s.mach.Env().FenceUndoable(exec.Action, exec.EffectiveInput())
	s.executeUntilSuccess(exec.Cancel())
}

// takeover is the cleaner's move on an instance whose latest round (od) is
// owned by a suspected replica: neutralize that round in cleaning mode,
// preventing the owner from enforcing a result, and settle it.
func (s *Server) takeover(id string, slot, round int, od ownerDecision) {
	if od.Owner == s.id || !s.det.Suspect(od.Owner) {
		return
	}
	s.m.Inc(obs.Takeovers)
	s.tr.Instant(s.clk.Now(), string(s.id), "takeover", id)
	s.cleanRound(id, slot, round, od)
}

// cleanRound settles a round no live goroutine of this replica drives:
// cleaning-mode coordination aborts it or learns the result it fixed. An
// aborted round is followed by the next one with this replica as
// prospective owner; a fixed result is forwarded to the client, whose owner
// may have crashed before replying (R2). A committed slot needs no forward:
// the follower applies it and answers its clients.
func (s *Server) cleanRound(id string, slot, round int, od ownerDecision) {
	if slot >= 0 {
		out := s.slotCoordination(slot, round, od.Batch, nil, slotOutcome{Outcome: "abort"})
		if out.Outcome == "abort" && !s.isStopped() {
			s.runSlot(slot, round+1, od.Batch)
		}
		return
	}
	res := s.resultCoordination(od.Req, round, EmptyResult)
	if s.isStopped() {
		return
	}
	if res == EmptyResult {
		s.processRequest(od.Req, round+1, od.Client)
		return
	}
	s.finish(id, res, -1)
	s.ep.Send(od.Client, MsgResult, ResultPayload{ReqID: id, Value: res})
}

// finish marks a request done with its fixed result, remembering it for
// re-submissions, and folds it into the applied set so later replays skip
// it. The result is persisted before the in-memory mark (and so before any
// reply built on it), keeping R1's fixed-result promise across a crash
// directly after the reply. slot is the finishing slot (−1 in the
// per-request plane). A request already done stays as it is — in the slot
// plane only when an earlier slot finished it. Reports whether it marked.
func (s *Server) finish(reqID string, res action.Value, slot int) bool {
	s.mu.Lock()
	st := s.active[reqID]
	if st == nil || st.done && (slot < 0 || (st.doneSlot >= 0 && st.doneSlot < slot)) {
		s.mu.Unlock()
		return false
	}
	s.mu.Unlock()
	if s.log != nil {
		s.log.Append(wal.Record{Kind: recFinish, Key: reqID, Str: string(res)})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.done = true
	st.result = res
	st.applied = true
	st.doneSlot = slot
	return true
}
