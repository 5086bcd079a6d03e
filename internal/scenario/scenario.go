package scenario

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xability/internal/action"
	"xability/internal/baseline"
	"xability/internal/core"
	"xability/internal/event"
	"xability/internal/obs"
	"xability/internal/reduce"
	"xability/internal/schedule"
	"xability/internal/simnet"
	"xability/internal/vclock"
	"xability/internal/verify"
	"xability/internal/workload"
)

// Protocol names the replication protocol a scenario attacks.
type Protocol string

const (
	// XAbility is the paper's protocol (internal/core).
	XAbility Protocol = "x-ability"
	// PrimaryBackup is the [BMST93]-style baseline.
	PrimaryBackup Protocol = "primary-backup"
	// Active is the [Sch93]-style baseline.
	Active Protocol = "active"
)

// Failure arms environment failure injection for one action: invocations
// fail with probability Prob until Budget failures have struck (eventual
// success, §5.2); AfterProb is the fraction of failures striking after the
// side effect applied. Failures stretch executions across virtual time so
// timed fault ops land mid-run.
type Failure struct {
	Action    action.Name
	Prob      float64
	Budget    int
	AfterProb float64
}

// Scenario is one complete adversarial experiment, declaratively: which
// protocol to deploy, on what network, with which injected environment
// failures, driven by which fault plan, submitting which requests. A
// Scenario is a value — register it once, then Execute it on any seed or
// Sweep it across thousands.
type Scenario struct {
	// Name identifies the scenario in the registry and on CLI flags.
	Name string
	// Label is the scenario column of the experiment tables; it defaults
	// to Name. Distinct scenarios of different protocols may share a
	// label ("nice", "crash-failover") so table rows align.
	Label string
	// Description is a one-line summary for listings.
	Description string

	// Protocol selects the stack under test (default XAbility).
	Protocol Protocol
	// Replicas is the replication degree (default 3).
	Replicas int
	// Shards, when positive, deploys the x-ability protocol on the sharded
	// runtime (internal/shard): Shards replica groups — each a full
	// cluster on its own network — behind the keyspace router, all on one
	// virtual clock, the workload routed by account key with per-shard
	// streams running concurrently. Zero keeps the single-cluster runtime
	// (1 is the one-group router deployment, the honest baseline for
	// shard-scaling comparisons). Baseline protocols ignore it. Sharded
	// runs sit outside the record/replay plane: the groups' private
	// networks would interleave one log nondeterministically.
	Shards int
	// Consensus selects the x-ability protocol's consensus substrate.
	Consensus core.ConsensusMode
	// Detector selects the x-ability protocol's failure detectors.
	Detector core.DetectorMode
	// Net tunes the simulated network. The seed is supplied per run; a
	// zero MaxDelay defaults to 200µs.
	Net simnet.Config
	// SyncDelay widens primary-backup's duplication window.
	SyncDelay time.Duration

	// Batch enables the x-ability protocol's batched/pipelined slot plane
	// on every replica (zero value: per-request protocol). Baselines
	// ignore it.
	Batch core.BatchConfig
	// Costs charges virtual CPU time per consensus proposal and per
	// execution attempt (zero value: free). Without costs the simulated
	// replicas have unbounded capacity and open-loop throughput never
	// saturates; with them the saturation experiments (T11) measure real
	// queueing.
	Costs core.CostModel

	// Durable gives every replica stable storage (internal/wal): servers
	// write-ahead request sightings, round claims, and finishes, CT
	// acceptors their estimates and decisions, and Plan.RestartAt can
	// revive a crashed replica from its log. Without it a crash is
	// permanent (the paper's §5.2 no-recovery model) and RestartAt is a
	// no-op. Sharded runs give every group its own store, recycled with
	// the group, so shard-scoped restarts (Plan.RestartShardAt) recover
	// from per-group logs. Baselines ignore it — they have no restart
	// surface.
	Durable bool
	// WALSync is the virtual-time sync tariff charged per WAL append when
	// Durable is set. Zero keeps stable storage schedule-invisible, so a
	// durable run with no restarts is byte-identical to its in-memory
	// twin; a positive tariff prices the paper's stable-storage writes
	// and shifts the whole schedule (T12's cost curve).
	WALSync time.Duration
	// WALSnapshotSync is the per-record sync tariff charged while writing
	// a compaction snapshot (zero: inherit WALSync). Snapshots write many
	// records back-to-back, so pricing them separately lets T14's cost
	// curve distinguish steady-state appends from compaction stalls.
	WALSnapshotSync time.Duration
	// WALCompact, when positive, compacts each replica's log whenever its
	// dead-record count reaches the threshold (see wal.Store). Zero never
	// compacts.
	WALCompact int

	// Accounts and Opening size the bank the replicas serve (defaults 1
	// account, 100 opening balance).
	Accounts int
	// Opening is the per-account opening balance (default 100).
	Opening int

	// Failures arms environment failure injection before the run starts.
	Failures []Failure
	// Plan is the timed fault schedule (may be nil for fault-free runs).
	Plan *Plan
	// RandomFaults, when set, draws a seeded random fault schedule from
	// the run's seed (Plan.Random) and merges it with Plan, so every seed
	// of a sweep fights a different schedule while each run stays a
	// replayable (scenario, seed) value. Zero-valued options default to
	// the scenario's replication degree and shard count.
	RandomFaults *RandomOptions

	// Requests is the submitted workload (default: one debit of acct-0).
	// Ignored when Workload is set.
	Requests []action.Request
	// Workload, when set, generates the request sequence from the run's
	// seed, so every seed of a sweep exercises a different sequence.
	Workload *workload.Spec
	// OpenLoop, when set, replaces the closed-loop workload entirely: the
	// run drives a seeded open-loop arrival schedule (many concurrent
	// single-request sessions through a core.Station) instead of one
	// sequential client session. Requests/Workload are ignored; the
	// verifier runs under the concurrent per-request relaxation
	// (verify.Run.Concurrent) because an open-loop completion log has no
	// sequential form. An unset Accounts in the spec defaults to the
	// scenario's Accounts.
	OpenLoop *workload.OpenLoopSpec

	// Settle extends the run past the last submit by this much virtual
	// time before verdicts are read, letting in-flight protocol activity
	// (a partitioned replica resolving its round after a heal, late
	// active-replication executions) finish. Runs always settle at least
	// 2ms past the plan's horizon.
	Settle time.Duration

	// HeartbeatInterval tunes the ◇P heartbeat detectors when Detector is
	// DetectorHeartbeat (zero selects the core default).
	HeartbeatInterval time.Duration

	// Deadline, when positive, caps the run at this much virtual time:
	// a watchdog closes the network, the client's retry obligation
	// lapses, and the outcome reports TimedOut. Zero means no cap. The
	// shrinker sets it so that edited schedules that would stall a client
	// await forever still terminate (and are then rejected, because a
	// hung run is not the recorded failure).
	Deadline time.Duration
}

// TableLabel returns the scenario's experiment-table label.
func (sc Scenario) TableLabel() string {
	if sc.Label != "" {
		return sc.Label
	}
	return sc.Name
}

// withDefaults resolves the zero values documented on the fields.
func (sc Scenario) withDefaults() Scenario {
	if sc.Protocol == "" {
		sc.Protocol = XAbility
	}
	if sc.Replicas <= 0 {
		sc.Replicas = 3
	}
	if sc.Net.MinDelay == 0 && sc.Net.MaxDelay == 0 {
		sc.Net.MaxDelay = 200 * time.Microsecond
	}
	if sc.Accounts <= 0 {
		sc.Accounts = 1
	}
	if sc.Opening == 0 {
		sc.Opening = 100
	}
	if len(sc.Requests) == 0 && sc.Workload == nil && sc.OpenLoop == nil {
		sc.Requests = []action.Request{action.NewRequest("debit", "acct-0")}
	}
	return sc
}

// Materialize resolves the seed-derived parts of a scenario into explicit
// values: with RandomFaults set, the drawn schedule is concatenated onto
// Plan and the knob cleared, so the result is a plain fixed-plan scenario
// for this seed. Execute does this implicitly; the shrinker does it
// explicitly so drawn fault ops are editable like hand-written ones.
// Idempotent; the receiver (and its registered plan) is not mutated.
func (sc Scenario) Materialize(seed int64) Scenario {
	if sc.RandomFaults == nil {
		return sc
	}
	sc = sc.withDefaults()
	opt := *sc.RandomFaults
	if opt.Replicas <= 0 {
		opt.Replicas = sc.Replicas
	}
	if opt.Shards < 1 {
		opt.Shards = sc.Shards
	}
	sc.Plan = sc.Plan.Concat(NewPlan().Random(seed, opt))
	sc.RandomFaults = nil
	return sc
}

// Outcome is the verdict of one scenario run: did the run look
// exactly-once to the checker and to the environment's audit, and what did
// it cost.
type Outcome struct {
	// Scenario and Seed identify the run.
	Scenario string
	Seed     int64

	// XAble is the checker's verdict on the observed history (strict or
	// per-request projection for the x-ability protocol; the charitable
	// idempotent reading for baselines).
	XAble bool
	// Replied reports whether every submitted request got an answer (R2).
	Replied bool
	// EffectsInForce is the environment audit for the first request's
	// action: applications of the side effect still in force across all
	// round tags. Exactly-once means 1 per request; the audit sums over
	// the run's requests.
	EffectsInForce int
	// Executions counts start events of the first request's action — 1
	// means the run stayed in the primary-backup flavor, more means
	// active-replication drift (or baseline duplication).
	Executions int
	// Cancels counts completed cancellation actions (the protocol's
	// cleanup work).
	Cancels int
	// ReplayDuplicates counts workload (action, input) pairs whose side
	// effect is in force at the settle instant more times than the
	// workload submitted the pair — the duplicate-replay audit. A
	// restarted replica that re-applied an effect it had already applied
	// before crashing shows up here even when the client-visible verdicts
	// all pass.
	ReplayDuplicates int

	// WALAppends and WALSyncTime report stable-storage activity for
	// durable runs (zero otherwise): records appended across all logs,
	// and total virtual time spent in sync tariffs. WALCompactions counts
	// compaction passes across all logs and WALLiveRecords the records
	// still live at the settle instant — together they pin that a
	// compacting log stays bounded by live state, not by history length.
	WALAppends     int
	WALSyncTime    time.Duration
	WALCompactions int
	WALLiveRecords int

	// Requests, Attempts, and Messages are the run's volume counters.
	Requests int
	Attempts int
	Messages int
	// SimTime is the virtual time the workload spanned (excluding
	// settling).
	SimTime time.Duration
	// Latency summarizes per-session submit→reply virtual latencies for
	// open-loop runs (zero value otherwise).
	Latency workload.LatencySummary

	// TimedOut reports that the scenario's Deadline watchdog killed the
	// run before the workload finished.
	TimedOut bool

	// Shards echoes Scenario.Shards for sharded runs (0 otherwise);
	// ShardReports carries each group's R2–R4 verdicts and RoutingExact
	// the router's global exactly-once-routing audit. XAble for a sharded
	// run is the merged verdict: every shard reduces and routing is exact.
	Shards       int
	ShardReports []verify.Report
	RoutingExact bool

	// Obs is the run's metrics snapshot, read at the same pinned settle
	// instant as the other observations. Nil unless the run was executed
	// with the observability plane armed (ExecuteObserved, or a sweep with
	// SweepOptions.Metrics).
	Obs *obs.Snapshot

	// History is the observed event trace (dropped by Sweep to bound
	// memory).
	History event.History
	// Report is the R2–R4 verdict; meaningful for the x-ability protocol
	// only (baselines are judged by XAble and the audit).
	Report verify.Report
	// Schedule is the recorded delivery log (runs with RunOptions.Record; nil
	// otherwise).
	Schedule *schedule.Log
	// Counterexample is the rendered minimal failing trace; the shrinker
	// (internal/shrink) fills it on the outcome of a minimized run.
	Counterexample string
}

// runScratch is a sweep worker's reusable substrate: one network — with
// its endpoints, interning tables, and event pools — recycled across the
// worker's seeds via simnet.Reset, instead of allocating a fresh world per
// run. The protocol actors (servers, clients, machines, environment) are
// still rebuilt per seed: they are cheap and hold all run state, so reuse
// stays invisible to outcomes — the sweep determinism tests pin bit-equal
// results against fresh-world Execute runs.
type runScratch struct {
	net *simnet.Network
	// groups is the sharded analogue: one recycled network per replica
	// group, re-seeded and re-clocked per run via simnet.ResetShared (see
	// takeGroups in sharded.go).
	groups []*simnet.Network
}

// network returns the run's network with the caller attached to its
// clock, so the deployment built on it starts inside the virtual schedule
// (see deploy): the recycled one when Reset succeeds, else a fresh one. A
// network whose previous run failed to wind down is abandoned rather than
// risked.
func (s *runScratch) network(cfg simnet.Config) *simnet.Network {
	var n *simnet.Network
	switch {
	case s == nil:
		n = simnet.New(cfg)
	case s.net == nil:
		s.net = simnet.New(cfg)
		n = s.net
	case s.net.Reset(cfg):
		n = s.net
	default:
		s.net = nil
		n = simnet.New(cfg)
	}
	n.Clock().Enter()
	return n
}

// watchdog arms the scenario's Deadline on a freshly started cluster: at
// the cap closeNets runs (closing the deployment's network, or every
// group's network of a sharded deployment), unblocking every client
// await. The cap guards the submit phase only — settling and audit
// stabilization always terminate on their own — so the caller disarms it
// once the workload is through. Call with the clock held; fired reports
// whether the watchdog killed the run.
func watchdog(sc Scenario, clk vclock.Clock, closeNets func()) (fired func() bool, disarm func()) {
	if sc.Deadline <= 0 {
		return func() bool { return false }, func() {}
	}
	var hit, done atomic.Bool
	clk.GoAfter(sc.Deadline, func() {
		if done.Load() {
			return
		}
		hit.Store(true)
		closeNets()
	})
	return hit.Load, func() { done.Store(true) }
}

// settleFor computes how long past the last reply a run keeps simulating
// before verdicts are read.
func settleFor(sc Scenario) time.Duration {
	settle := sc.Settle
	if sc.Plan != nil {
		if h := sc.Plan.Horizon() + 2*time.Millisecond; h > settle {
			settle = h
		}
	}
	return settle
}

// settleRun sleeps the settle horizon, then extends it in fixed steps
// while undoable transactions still await their decided commit or cancel.
// The protocol answers a client as soon as the outcome decision is fixed;
// executing that outcome can trail far behind a loaded executor (under
// open-loop overload, by a whole backlog). Snapshotting mid-drain would
// miss commit pairs the run will still produce and fail verification on a
// run that is exactly-once. The extension is deterministic — pending() at
// a virtual instant is a function of the schedule — and bounded, so a
// pathological run still settles.
func settleRun(sc Scenario, clk vclock.Clock, pending func() int) {
	clk.Sleep(settleFor(sc))
	for i := 0; i < 400 && pending() > 0; i++ {
		clk.Sleep(500 * time.Microsecond)
	}
}

func executeBaseline(sc Scenario, seed int64, reqs []action.Request, scratch *runScratch) Outcome {
	scheme := baseline.PrimaryBackup
	if sc.Protocol == Active {
		scheme = baseline.Active
	}
	c := baseline.NewCluster(baseline.ClusterConfig{
		Scheme:    scheme,
		Replicas:  sc.Replicas,
		Seed:      seed,
		Network:   scratch.network(netConfig(sc, seed)),
		Handler:   DivergingHandler(),
		SyncDelay: sc.SyncDelay,
	})
	defer c.Stop()

	clk := c.Clock()
	timedOut, disarm := watchdog(sc, clk, c.Net.Close)
	if sc.Plan != nil {
		sc.Plan.Apply(c)
	}
	start := clk.Now()
	replied := true
	for _, r := range reqs {
		if c.Client.SubmitUntilSuccess(r) == "" {
			replied = false
		}
	}
	disarm()
	simTime := clk.Now() - start
	clk.Sleep(settleFor(sc))
	msgs := c.Net.TotalSent() // fixed virtual instant; see runXAbility
	snap := sc.Net.Metrics.Snapshot()
	clk.Exit()
	c.Net.Quiesce()

	// Active replication keeps executing after the first reply returns to
	// the client; wait for the audit to stabilize so the outcome reports
	// the protocol's steady state.
	logged, _ := c.Client.Log()
	audit := func() int {
		total := 0
		for _, r := range logged {
			total += c.Env.InForce(r.Action, r.EffectiveInput())
		}
		return total
	}
	waitStable(clk, 2*time.Second, audit)

	// Snapshot history and audit at a pinned virtual instant: the
	// zero-length sleep returns via the pump, which only fires when every
	// other attached goroutine is blocked — so nothing is mid-step while
	// the snapshots are read (see runXAbility).
	clk.Enter()
	clk.Sleep(0)
	trace := c.Observer.History()
	effects := audit()
	c.Stop() // while attached; see runXAbility
	clk.Exit()
	o := outcomeFrom(sc, seed, reqs, trace, replied)
	o.TimedOut = timedOut()
	xable := len(logged) > 0
	for _, r := range logged {
		if !rawXAble(trace, r) {
			xable = false
		}
	}
	o.XAble = xable
	o.Attempts = c.Client.Attempts()
	o.Messages = msgs
	o.SimTime = simTime
	o.EffectsInForce = effects
	o.Obs = snap
	return o
}

// netConfig clones the scenario's network config for one seeded run.
func netConfig(sc Scenario, seed int64) simnet.Config {
	cfg := sc.Net
	cfg.Seed = seed
	cfg.Clock = nil // every run gets its own virtual clock
	return cfg
}

// outcomeFrom fills the history-derived fields shared by both stacks.
func outcomeFrom(sc Scenario, seed int64, reqs []action.Request, h event.History, replied bool) Outcome {
	o := Outcome{
		Scenario: sc.Name,
		Seed:     seed,
		Replied:  replied,
		Requests: len(reqs),
		History:  h,
	}
	if len(reqs) > 0 {
		a := reqs[0].Action
		for _, e := range h {
			if e.Type == event.Start && e.Action == a {
				o.Executions++
			}
			if e.Type == event.Complete && e.Action == action.Cancel(a) {
				o.Cancels++
			}
		}
	}
	return o
}

// waitStable polls probe on the cluster clock until its value has not
// changed for 20ms of simulated time (or the deadline passes). On the
// virtual clock the whole wait costs only the work it overlaps with.
func waitStable(clk vclock.Clock, d time.Duration, probe func() int) {
	clk.Enter()
	defer clk.Exit()
	deadline := clk.Now() + d
	last, since := probe(), clk.Now()
	for clk.Now() < deadline {
		clk.Sleep(2 * time.Millisecond)
		cur := probe()
		if cur != last {
			last, since = cur, clk.Now()
			continue
		}
		if clk.Now()-since > 20*time.Millisecond {
			return
		}
	}
}

// DivergingHandler returns the non-deterministic raw handler baselines
// run: duplicated executions produce diverging outputs ("v1", "v2", …),
// which is exactly what the x-ability checker catches. Each call returns
// a handler with an independent counter.
func DivergingHandler() baseline.Handler {
	var mu sync.Mutex
	n := 0
	return func(req action.Request) action.Value {
		mu.Lock()
		defer mu.Unlock()
		n++
		return action.Value(fmt.Sprintf("v%d", n))
	}
}

// rawXAble checks a baseline history against the request's failure-free
// target, classifying the action as idempotent (the most charitable
// reading for the baseline).
func rawXAble(h event.History, req action.Request) bool {
	reg := action.NewRegistry()
	reg.MustRegister(req.Action, action.KindIdempotent)
	n := reduce.New(reg)
	spec, err := reduce.SpecFor(reg, req)
	if err != nil {
		return false
	}
	ok, _ := n.XAbleTo(h, []reduce.TargetSpec{spec})
	return ok
}
