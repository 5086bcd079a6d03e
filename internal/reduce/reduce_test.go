package reduce

import (
	"testing"

	"xability/internal/action"
	"xability/internal/event"
)

// testRegistry builds the vocabulary used across the reduce tests:
// idempotent "read" and "notify", undoable "debit" and "credit".
func testRegistry(t testing.TB) *action.Registry {
	t.Helper()
	reg := action.NewRegistry()
	reg.MustRegister("read", action.KindIdempotent)
	reg.MustRegister("notify", action.KindIdempotent)
	reg.MustRegister("debit", action.KindUndoable)
	reg.MustRegister("credit", action.KindUndoable)
	return reg
}

func h(events ...event.Event) event.History { return event.History(events) }

func TestEventsOfIdempotent(t *testing.T) {
	reg := testRegistry(t)
	got, err := EventsOf(reg, action.NewRequest("read", "k"), "v")
	if err != nil {
		t.Fatal(err)
	}
	want := h(event.S("read", "k"), event.C("read", "v"))
	if !got.Equal(want) {
		t.Errorf("EventsOf = %v, want %v", got, want)
	}
}

func TestEventsOfUndoable(t *testing.T) {
	reg := testRegistry(t)
	req := action.NewRequest("debit", "a=1").WithID("q").WithRound(2)
	got, err := EventsOf(reg, req, "ok")
	if err != nil {
		t.Fatal(err)
	}
	iv := req.EffectiveInput()
	com := req.Commit()
	want := h(
		event.S("debit", iv),
		event.C("debit", "ok"),
		event.S(com.Action, com.EffectiveInput()),
		event.C(com.Action, action.Nil),
	)
	if !got.Equal(want) {
		t.Errorf("EventsOf = %v, want %v", got, want)
	}
}

func TestEventsOfUnknownAction(t *testing.T) {
	reg := testRegistry(t)
	if _, err := EventsOf(reg, action.NewRequest("nope", "x"), "v"); err == nil {
		t.Error("expected error for unregistered action")
	}
}

func TestMatchTargetIdempotent(t *testing.T) {
	reg := testRegistry(t)
	spec, err := SpecFor(reg, action.NewRequest("read", "k"))
	if err != nil {
		t.Fatal(err)
	}
	outs, ok := MatchTarget(h(event.S("read", "k"), event.C("read", "v")), []TargetSpec{spec})
	if !ok || len(outs) != 1 || outs[0] != "v" {
		t.Errorf("MatchTarget = (%v, %v)", outs, ok)
	}
	// Excess events fail.
	if _, ok := MatchTarget(h(event.S("read", "k"), event.C("read", "v"), event.S("read", "k")), []TargetSpec{spec}); ok {
		t.Error("trailing events must fail the match")
	}
	// Pinned output.
	pin := spec.WithOutput("w")
	if _, ok := MatchTarget(h(event.S("read", "k"), event.C("read", "v")), []TargetSpec{pin}); ok {
		t.Error("pinned output w must reject v")
	}
}

func TestMatchTargetUndoableAnyRound(t *testing.T) {
	reg := testRegistry(t)
	req := action.NewRequest("debit", "a=1").WithID("q")
	spec, err := SpecFor(reg, req)
	if err != nil {
		t.Fatal(err)
	}
	// The protocol may commit in any round; round 3 of request q matches.
	r3 := req.WithRound(3)
	ff, _ := EventsOf(reg, r3, "ok")
	outs, ok := MatchTarget(ff, []TargetSpec{spec})
	if !ok || outs[0] != "ok" {
		t.Errorf("round-3 commit should match AnyRound spec; got (%v, %v)", outs, ok)
	}
	// A different request ID must not match.
	other := action.NewRequest("debit", "a=1").WithID("other").WithRound(1)
	ff2, _ := EventsOf(reg, other, "ok")
	if _, ok := MatchTarget(ff2, []TargetSpec{spec}); ok {
		t.Error("different request ID must not match")
	}
	// Base and commit rounds must agree.
	mixed := h(ff[0], ff[1], event.S(action.Commit("debit"), req.WithRound(4).Commit().EffectiveInput()), event.C(action.Commit("debit"), action.Nil))
	if _, ok := MatchTarget(mixed, []TargetSpec{spec}); ok {
		t.Error("commit of a different round must not match")
	}
}

func TestMatchTargetSequence(t *testing.T) {
	reg := testRegistry(t)
	r1 := action.NewRequest("read", "k")
	r2 := action.NewRequest("debit", "a").WithID("q").WithRound(1)
	s1, _ := SpecFor(reg, action.NewRequest("read", "k"))
	s2, _ := SpecFor(reg, action.NewRequest("debit", "a").WithID("q"))
	ff1, _ := EventsOf(reg, r1, "v1")
	ff2, _ := EventsOf(reg, r2, "v2")
	outs, ok := MatchTarget(ff1.Concat(ff2), []TargetSpec{s1, s2})
	if !ok || outs[0] != "v1" || outs[1] != "v2" {
		t.Errorf("sequence match = (%v, %v)", outs, ok)
	}
	// Order matters.
	if _, ok := MatchTarget(ff2.Concat(ff1), []TargetSpec{s1, s2}); ok {
		t.Error("reordered sequence must not match")
	}
}

// --- Rule 18: idempotent absorption ---------------------------------------

func TestRule18AbsorbsFailedAttempt(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	// Attempt started, crashed; retried successfully.
	hist := h(event.S("read", "k"), event.S("read", "k"), event.C("read", "v"))
	ok, ov := n.XAble(hist, action.NewRequest("read", "k"))
	if !ok || ov != "v" {
		t.Errorf("XAble = (%v, %q), want (true, v)", ok, ov)
	}
}

func TestRule18AbsorbsCompletedAttempt(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	// Two complete executions with the same output (idempotent actions
	// resolve their non-determinism at first completion).
	hist := h(event.S("read", "k"), event.C("read", "v"), event.S("read", "k"), event.C("read", "v"))
	ok, ov := n.XAble(hist, action.NewRequest("read", "k"))
	if !ok || ov != "v" {
		t.Errorf("XAble = (%v, %q), want (true, v)", ok, ov)
	}
}

func TestRule18OverlappingAttempts(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	// S S C C: the attempts overlap (rule 11 interleaving).
	hist := h(event.S("read", "k"), event.S("read", "k"), event.C("read", "v"), event.C("read", "v"))
	ok, _ := n.XAble(hist, action.NewRequest("read", "k"))
	if !ok {
		t.Error("overlapping duplicate executions should be x-able")
	}
}

func TestRule18ManyAttempts(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	var hist event.History
	for i := 0; i < 5; i++ {
		hist = append(hist, event.S("read", "k"))
	}
	for i := 0; i < 5; i++ {
		hist = append(hist, event.C("read", "v"))
	}
	ok, _ := n.XAble(hist, action.NewRequest("read", "k"))
	if !ok {
		t.Error("five overlapping executions should reduce to one")
	}
}

func TestRule18MismatchedOutputsNotXAble(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	// Two completed executions with different outputs: rule 18 shares ov
	// between the attempt and the success, so this cannot reduce.
	hist := h(event.S("read", "k"), event.C("read", "v1"), event.S("read", "k"), event.C("read", "v2"))
	ok, _ := n.XAble(hist, action.NewRequest("read", "k"))
	if ok {
		t.Error("diverging completion values must not be x-able")
	}
}

func TestStartOnlyNotXAble(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(event.S("read", "k"))
	if ok, _ := n.XAble(hist, action.NewRequest("read", "k")); ok {
		t.Error("an execution that never completed is not x-able")
	}
	if ok, _ := n.XAble(event.Lambda, action.NewRequest("read", "k")); ok {
		t.Error("the empty history is not x-able for a request")
	}
}

func TestRule18DoesNotCrossInputs(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(event.S("read", "k1"), event.S("read", "k2"), event.C("read", "v"))
	if ok, _ := n.XAble(hist, action.NewRequest("read", "k2")); ok {
		t.Error("the dangling start on k1 must survive reduction")
	}
}

// --- Rule 19: cancellation -------------------------------------------------

func undoableEvents(req action.Request, ov action.Value) (s, c event.Event) {
	return event.S(req.Action, req.EffectiveInput()), event.C(req.Action, ov)
}

func cancelPair(req action.Request) (s, c event.Event) {
	can := req.Cancel()
	return event.S(can.Action, can.EffectiveInput()), event.C(can.Action, action.Nil)
}

func commitPair(req action.Request) (s, c event.Event) {
	com := req.Commit()
	return event.S(com.Action, com.EffectiveInput()), event.C(com.Action, action.Nil)
}

func TestRule19CancelledAttemptDisappears(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1, r2 := base.WithRound(1), base.WithRound(2)

	s1, c1 := undoableEvents(r1, "ok1")
	cs1, cc1 := cancelPair(r1)
	ff2, _ := EventsOf(reg, r2, "ok2")

	// Round 1 executed, was cancelled; round 2 executed and committed.
	hist := h(s1, c1, cs1, cc1).Concat(ff2)
	spec, _ := SpecFor(reg, base)
	ok, outs := n.XAbleTo(hist, []TargetSpec{spec})
	if !ok || outs[0] != "ok2" {
		t.Errorf("XAbleTo = (%v, %v), want (true, [ok2])", ok, outs)
	}
}

func TestRule19CrashedAttemptDisappears(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1, r2 := base.WithRound(1), base.WithRound(2)

	s1, _ := undoableEvents(r1, "")
	cs1, cc1 := cancelPair(r1)
	ff2, _ := EventsOf(reg, r2, "ok2")

	// Round 1 started but never completed; the cleaner cancelled it.
	hist := h(s1, cs1, cc1).Concat(ff2)
	spec, _ := SpecFor(reg, base)
	if ok, _ := n.XAbleTo(hist, []TargetSpec{spec}); !ok {
		t.Error("crashed-then-cancelled attempt should reduce away")
	}
}

func TestRule19GratuitousCancel(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1, r2 := base.WithRound(1), base.WithRound(2)

	// The cleaner cancelled round 1 before the owner ever started it.
	cs1, cc1 := cancelPair(r1)
	ff2, _ := EventsOf(reg, r2, "ok2")
	hist := h(cs1, cc1).Concat(ff2)
	spec, _ := SpecFor(reg, base)
	if ok, _ := n.XAbleTo(hist, []TargetSpec{spec}); !ok {
		t.Error("gratuitous cancel pair should reduce away")
	}
}

func TestRule19RepeatedCancelAndRetry(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")

	var hist event.History
	// Rounds 1..3 each execute and get cancelled; round 4 commits.
	for round := 1; round <= 3; round++ {
		r := base.WithRound(round)
		s, c := undoableEvents(r, action.Value('a'+rune(round)))
		cs, cc := cancelPair(r)
		hist = hist.Concat(h(s, c, cs, cc))
	}
	ff, _ := EventsOf(reg, base.WithRound(4), "final")
	hist = hist.Concat(ff)
	spec, _ := SpecFor(reg, base)
	ok, outs := n.XAbleTo(hist, []TargetSpec{spec})
	if !ok || outs[0] != "final" {
		t.Errorf("alternating execute/cancel must reduce; got (%v, %v)", ok, outs)
	}
}

func TestRule19DuplicateCancelsCollapse(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1, r2 := base.WithRound(1), base.WithRound(2)

	s1, c1 := undoableEvents(r1, "ok1")
	cs1, cc1 := cancelPair(r1)
	ff2, _ := EventsOf(reg, r2, "ok2")
	// Owner and cleaner both cancel round 1 (cancel actions are idempotent;
	// the duplicate pair collapses under rule 18 before rule 19 fires).
	hist := h(s1, c1, cs1, cc1, cs1, cc1).Concat(ff2)
	spec, _ := SpecFor(reg, base)
	if ok, _ := n.XAbleTo(hist, []TargetSpec{spec}); !ok {
		t.Error("duplicate cancel pairs should collapse and then cancel the attempt")
	}
}

func TestRule19DoesNotCancelCommittedAction(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1 := base.WithRound(1)

	s1, c1 := undoableEvents(r1, "ok")
	ms1, mc1 := commitPair(r1)
	cs1, cc1 := cancelPair(r1)
	// Commit interleaved between the action and a (bogus) cancel: the
	// (aᶜ,iv) ∉ h′ constraint forbids removing the attempt, so the bogus
	// cancel pair keeps the history from reducing to the committed form.
	hist := h(s1, c1, ms1, mc1, cs1, cc1)
	spec, _ := SpecFor(reg, base)
	if ok, _ := n.XAbleTo(hist, []TargetSpec{spec}); ok {
		t.Error("a cancel after commit must not erase the committed action")
	}
}

func TestRule19CancelDoesNotCrossRounds(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1, r2 := base.WithRound(1), base.WithRound(2)

	// Round 2 executed and committed; a round-1 cancel pair floats around.
	// §5.4: a cancellation for round n cannot cancel round n+1.
	s2, c2 := undoableEvents(r2, "ok")
	ms2, mc2 := commitPair(r2)
	cs1, cc1 := cancelPair(r1)
	hist := h(s2, cs1, cc1, c2, ms2, mc2)
	spec, _ := SpecFor(reg, base)
	ok, outs := n.XAbleTo(hist, []TargetSpec{spec})
	if !ok || outs[0] != "ok" {
		t.Errorf("round-1 cancel must not cancel round 2; got (%v, %v)", ok, outs)
	}
}

// --- Rule 20: commit idempotence --------------------------------------------

func TestRule20DuplicateCommitsCollapse(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1 := base.WithRound(1)

	s1, c1 := undoableEvents(r1, "ok")
	ms1, mc1 := commitPair(r1)
	// Owner and cleaner both commit.
	hist := h(s1, c1, ms1, mc1, ms1, mc1)
	spec, _ := SpecFor(reg, base)
	ok, outs := n.XAbleTo(hist, []TargetSpec{spec})
	if !ok || outs[0] != "ok" {
		t.Errorf("duplicate commits should collapse; got (%v, %v)", ok, outs)
	}
}

func TestRule20OverlappingCommits(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1 := base.WithRound(1)

	s1, c1 := undoableEvents(r1, "ok")
	ms1, mc1 := commitPair(r1)
	// S C Sc Sc Cc Cc — overlapped commit executions.
	hist := h(s1, c1, ms1, ms1, mc1, mc1)
	spec, _ := SpecFor(reg, base)
	if ok, _ := n.XAbleTo(hist, []TargetSpec{spec}); !ok {
		t.Error("overlapping duplicate commits should collapse")
	}
}

func TestUncommittedUndoableNotXAble(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a=1").WithID("q")
	r1 := base.WithRound(1)
	s1, c1 := undoableEvents(r1, "ok")
	hist := h(s1, c1)
	spec, _ := SpecFor(reg, base)
	if ok, _ := n.XAbleTo(hist, []TargetSpec{spec}); ok {
		t.Error("an undoable action without its commit is not x-able")
	}
}

// --- Interleaving across actions --------------------------------------------

func TestInterleavedActionsSequentialize(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	// S(read,k1) S(notify,m) C(read,v) C(notify,done) with targets read
	// then notify: the Λ-form of rule 18 untangles the interleaving.
	hist := h(
		event.S("read", "k1"),
		event.S("notify", "m"),
		event.C("read", "v"),
		event.C("notify", "done"),
	)
	sp1, _ := SpecFor(reg, action.NewRequest("read", "k1"))
	sp2, _ := SpecFor(reg, action.NewRequest("notify", "m"))
	ok, outs := n.XAbleTo(hist, []TargetSpec{sp1, sp2})
	if !ok || outs[0] != "v" || outs[1] != "done" {
		t.Errorf("interleaved pairs should sequentialize; got (%v, %v)", ok, outs)
	}
	// The opposite target order is also reachable: completion order is
	// notify-last, but the reduction can compact read at its completion
	// too. Only one of the two orders exists per reduction path; the
	// notify-then-read target requires moving read's pair past notify's
	// completion, which the rules cannot do.
	if ok, _ := n.XAbleTo(hist, []TargetSpec{sp2, sp1}); ok {
		t.Error("reduction cannot reorder pairs against completion order")
	}
}

func TestDuplicatesWithJunkInsideWindow(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	// A failed attempt of read, then interleaved junk from notify inside
	// the success span.
	hist := h(
		event.S("read", "k"),
		event.S("read", "k"),
		event.S("notify", "m"),
		event.C("read", "v"),
		event.C("notify", "done"),
	)
	sp1, _ := SpecFor(reg, action.NewRequest("read", "k"))
	sp2, _ := SpecFor(reg, action.NewRequest("notify", "m"))
	ok, _ := n.XAbleTo(hist, []TargetSpec{sp1, sp2})
	if !ok {
		t.Error("junk inside the success window should not block reduction")
	}
}

func TestSequenceRepeatsSameIdempotentAction(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	// The sequence legitimately reads k twice; reduction must keep both.
	hist := h(
		event.S("read", "k"), event.C("read", "v"),
		event.S("read", "k"), event.C("read", "v"),
	)
	sp, _ := SpecFor(reg, action.NewRequest("read", "k"))
	ok, outs := n.XAbleTo(hist, []TargetSpec{sp, sp})
	if !ok || len(outs) != 2 {
		t.Errorf("two expected executions must both survive; got (%v, %v)", ok, outs)
	}
	// And with a retry of the second read.
	hist2 := h(
		event.S("read", "k"), event.C("read", "v"),
		event.S("read", "k"), event.S("read", "k"), event.C("read", "v"),
	)
	if ok, _ := n.XAbleTo(hist2, []TargetSpec{sp, sp}); !ok {
		t.Error("retry of the second execution should absorb, keeping two")
	}
}

// --- Signatures --------------------------------------------------------------

func TestSignatureSingleValue(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(event.S("read", "k"), event.S("read", "k"), event.C("read", "v"))
	sigs := n.Signature(hist, action.NewRequest("read", "k"))
	if len(sigs) != 1 || sigs[0] != "v" {
		t.Errorf("Signature = %v, want [v]", sigs)
	}
}

func TestSignatureEmptyForIrreducible(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(event.S("read", "k"), event.C("read", "v1"), event.S("read", "k"), event.C("read", "v2"))
	sigs := n.Signature(hist, action.NewRequest("read", "k"))
	if len(sigs) != 0 {
		t.Errorf("diverging outputs admit no signature; got %v", sigs)
	}
}

func TestSignatureUndoable(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	base := action.NewRequest("debit", "a").WithID("q")
	ff, _ := EventsOf(reg, base.WithRound(1), "ok")
	sigs := n.Signature(ff, base)
	if len(sigs) != 1 || sigs[0] != "ok" {
		t.Errorf("Signature = %v, want [ok]", sigs)
	}
	// Without the commit there is no signature (eq. 24 requires the full
	// failure-free history including the commit pair).
	sigs = n.Signature(ff[:2], base)
	if len(sigs) != 0 {
		t.Errorf("uncommitted action has no signature; got %v", sigs)
	}
}

// --- Normal form shape -------------------------------------------------------

func TestNormalizeIsIdempotentOperation(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(
		event.S("read", "k"), event.S("read", "k"),
		event.S("notify", "m"), event.C("read", "v"),
		event.C("notify", "done"),
	)
	once := n.Normalize(hist)
	twice := n.Normalize(once)
	if !once.Equal(twice) {
		t.Errorf("Normalize not idempotent:\n once=%v\ntwice=%v", once, twice)
	}
}

func TestNormalizeNeverGrowsHistory(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	hist := h(
		event.S("read", "k"), event.C("read", "v"),
		event.S("read", "k"), event.C("read", "v"),
		event.S("notify", "m"), event.C("notify", "x"),
	)
	norm := n.Normalize(hist)
	if len(norm) > len(hist) {
		t.Errorf("normal form longer than input: %d > %d", len(norm), len(hist))
	}
}

func TestNormalizeTraceRecords(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	var trace []TraceStep
	n.Trace = &trace
	hist := h(event.S("read", "k"), event.S("read", "k"), event.C("read", "v"))
	n.Normalize(hist)
	if len(trace) == 0 {
		t.Fatal("expected trace steps")
	}
	if trace[0].Rule != Rule18 {
		t.Errorf("first step rule = %v, want rule 18", trace[0].Rule)
	}
	if len(trace[0].After) >= len(trace[0].Before) {
		t.Error("dedup step should shrink the history")
	}
}

func TestRuleString(t *testing.T) {
	if Rule18.String() != "rule 18 (idempotent)" {
		t.Error(Rule18.String())
	}
	if Rule19.String() != "rule 19 (cancellation)" {
		t.Error(Rule19.String())
	}
	if Rule20.String() != "rule 20 (commit)" {
		t.Error(Rule20.String())
	}
	if Rule(7).String() != "rule 7" {
		t.Error(Rule(7).String())
	}
}

// TestDanglerAbsorptionSkipsCompletedStart pins a protocol history in which
// injected failures make one round retry its cancel and its execution. The
// cancel group's first start already completed when a later start dangles:
// absorbing that first start would orphan its completion, so dangler
// absorption must anchor on the start that another start follows.
func TestDanglerAbsorptionSkipsCompletedStart(t *testing.T) {
	reg := testRegistry(t)
	n := New(reg)
	r := action.NewRequest("debit", "acct").WithID("q").WithRound(1)
	s, c := undoableEvents(r, "debited")
	cs, cc := cancelPair(r)
	ms, mc := commitPair(r)
	hist := h(s, cs, cs, cc, s, cs, cs, cc, s, cs, cc, s, c, ms, mc)
	spec, _ := SpecFor(reg, r)
	res := n.Search(hist, func(x event.History) bool {
		_, ok := MatchTarget(x, []TargetSpec{spec})
		return ok
	}, 0)
	if !res.Found {
		t.Fatal("search finds no reduction to the target")
	}
	ok, outs := n.XAbleTo(hist, []TargetSpec{spec})
	if !ok || outs[0] != "debited" {
		t.Errorf("greedy disagrees with search: got (%v, %v), want (true, [debited])", ok, outs)
	}
}
