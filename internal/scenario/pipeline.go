package scenario

import (
	"time"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/event"
	"xability/internal/obs"
	"xability/internal/schedule"
	"xability/internal/shard"
	"xability/internal/vclock"
	"xability/internal/verify"
	"xability/internal/wal"
	"xability/internal/workload"
)

// RunOptions arms a run's optional planes; the zero value is a plain
// Execute. Any field may be nil.
type RunOptions struct {
	// Record, when non-nil, receives every delivery decision of the run's
	// network, and the outcome carries it as Schedule.
	Record *schedule.Log
	// Replay, when non-nil, re-executes the given log instead of drawing
	// delays from the seed — the record/replay/shrink pipeline's input.
	Replay *schedule.Replay
	// Obs, when non-nil, has the run's networks stamp counters and latency
	// observations into Obs.Metrics and request-lifecycle spans into
	// Obs.Trace; the metrics snapshot, read at the same pinned settle
	// instant as the run's other observations, lands in Outcome.Obs.
	// Observation does not perturb the schedule: an observed run's verdict
	// fields are byte-equal to its unobserved twin's.
	Obs *obs.Run
}

// Run executes one scenario on one seed with the planes opt arms. Runs
// are deterministic: equal (scenario, seed, opt) inputs yield equal
// outcomes, which is what makes sweep distributions and recorded
// schedules replayable. Sharded runs sit outside the record/replay plane
// (see Scenario.Shards) and ignore Record and Replay.
func Run(sc Scenario, seed int64, opt RunOptions) Outcome {
	return run(sc, seed, opt, nil)
}

// Execute runs one scenario on one seed with no optional plane armed.
func Execute(sc Scenario, seed int64) Outcome { return Run(sc, seed, RunOptions{}) }

// ExecuteObserved is Execute with the observability plane armed (see
// RunOptions.Obs).
func ExecuteObserved(sc Scenario, seed int64, run *obs.Run) Outcome {
	return Run(sc, seed, RunOptions{Obs: run})
}

// run is Run with an optional per-worker scratch (sweep runs pass one;
// single runs pass nil).
func run(sc Scenario, seed int64, opt RunOptions, scratch *runScratch) Outcome {
	sc = sc.withDefaults().Materialize(seed)
	sc.Net.Record, sc.Net.Replay = opt.Record, opt.Replay
	if opt.Obs != nil {
		sc.Net.Metrics, sc.Net.Trace = opt.Obs.Metrics, opt.Obs.Trace
	}
	reqs := sc.Requests
	if sc.Workload != nil {
		reqs = workload.Generate(*sc.Workload, seed)
	}
	var o Outcome
	if sc.Protocol == XAbility {
		o = runXAbility(sc, seed, reqs, scratch)
	} else {
		o = executeBaseline(sc, seed, reqs, scratch)
	}
	o.Schedule = opt.Record
	return o
}

// deployment is an x-ability run's replica groups: one core.Cluster, or a
// shard.Cluster's groups on one shared clock.
type deployment struct {
	groups []*core.Cluster
	// sh is the sharded runtime the groups belong to; nil for a single
	// cluster.
	sh *shard.Cluster
}

// deploy builds the run's replica groups, each serving a bank of accounts
// accounts, and returns with the caller attached to their clock: the
// goroutines the constructors spawn then queue behind the builder, where a
// detached builder would let them advance virtual time, by an amount that
// depends on the host's thread scheduling, while later ones are created.
func deploy(sc Scenario, seed int64, accounts int, scratch *runScratch) deployment {
	if sc.Shards > 0 {
		// The groups' private networks would interleave one log
		// nondeterministically: drop the schedule hooks rather than hand
		// one log to several racing networks. The observability hooks
		// stay: the groups share one clock, so one registry folds their
		// deliveries deterministically. Reuse works per group: the scratch
		// recycles one network per shard via simnet.ResetShared.
		sc.Net.Record, sc.Net.Replay = nil, nil
		cfg := shardConfig(sc, seed, scratch, accounts)
		cfg.Net.Clock.Enter()
		sh := shard.New(cfg)
		d := deployment{groups: make([]*core.Cluster, sh.Shards()), sh: sh}
		for s := range d.groups {
			d.groups[s] = sh.Group(s)
		}
		return d
	}
	bank := workload.NewBank(accounts, sc.Opening)
	c := core.NewCluster(core.ClusterConfig{
		Replicas:  sc.Replicas,
		Seed:      seed,
		Network:   scratch.network(netConfig(sc, seed)),
		Consensus: sc.Consensus,
		Detector:  sc.Detector,
		Registry:  workload.Registry(),
		Setup:     bank.Setup(),
		Batch:     sc.Batch,
		Costs:     sc.Costs,
		Durable:   sc.Durable,
		WALSync:   sc.WALSync,

		WALSnapshotSync:   sc.WALSnapshotSync,
		WALCompact:        sc.WALCompact,
		HeartbeatInterval: sc.HeartbeatInterval,
	})
	return deployment{groups: []*core.Cluster{c}}
}

func (d deployment) clock() vclock.Clock { return d.groups[0].Clock() }

// target is the deployment's fault-plan surface.
func (d deployment) target() Target {
	if d.sh != nil {
		return shardedTarget{d.sh}
	}
	return d.groups[0]
}

// closeNets closes every group's network — the watchdog's action.
func (d deployment) closeNets() {
	for _, g := range d.groups {
		g.Net.Close()
	}
}

func (d deployment) pendingOutcomes() int {
	n := 0
	for _, g := range d.groups {
		n += g.Env.PendingOutcome()
	}
	return n
}

// inForce sums the groups' environment audits for one raw (action, input)
// pair: the owner accounts for the effect, and a mis-routed duplicate
// applied by a non-owner inflates the count instead of hiding.
func (d deployment) inForce(a action.Name, iv action.Value) int {
	n := 0
	for _, g := range d.groups {
		n += g.Env.InForceTotal(a, iv)
	}
	return n
}

// histories snapshots each group's history. A single cluster is read in
// place; the sharded runtime quiesces each group's network first.
func (d deployment) histories() []event.History {
	if d.sh != nil {
		return d.sh.Histories()
	}
	return []event.History{d.groups[0].Observer.History()}
}

func (d deployment) stop() {
	for _, g := range d.groups {
		g.Stop()
	}
}

// completionLog is what the checker reads of one group's submissions: its
// closed-loop client or its open-loop station.
type completionLog interface {
	Log() ([]action.Request, []action.Value)
	Attempts() int
}

// runXAbility is the x-ability run pipeline. Every deployment shape goes
// through each stage once: deploy, arm failures, enter the clock with the
// watchdog and fault plan scheduled, drive the workload, settle, observe
// at the settle instant, stop, and verify. Closed and open loop differ
// only in the drive (the client loop, Router.CallAll, or one station per
// group) and in which completion log the checker reads. An open-loop run
// drives a seeded arrival schedule of independent single-request sessions,
// so offered load is fixed by the spec, not by service latency, and its
// completion log has no sequential form: verification runs under the
// concurrent per-request relaxation.
func runXAbility(sc Scenario, seed int64, reqs []action.Request, scratch *runScratch) Outcome {
	open := sc.OpenLoop != nil
	var arrivals []workload.Arrival
	accounts := sc.Accounts
	if open {
		spec := openLoopSpec(sc)
		arrivals = workload.GenerateOpenLoop(spec, seed)
		accounts = spec.Accounts
	}
	d := deploy(sc, seed, accounts, scratch)
	defer d.stop()
	for _, g := range d.groups {
		for _, f := range sc.Failures {
			g.Env.SetFailures(f.Action, f.Prob, f.Budget, f.AfterProb)
		}
	}
	logs := make([]completionLog, len(d.groups))
	var stations []*core.Station
	var ats [][]time.Duration
	var sreqs [][]action.Request
	if open {
		ats, sreqs, reqs = d.partition(arrivals)
		stations = make([]*core.Station, len(d.groups))
		for s, g := range d.groups {
			stations[s] = g.OpenStation()
			logs[s] = stations[s]
		}
	} else {
		for s, g := range d.groups {
			logs[s] = g.Client
		}
	}

	clk := d.clock()
	timedOut, disarm := watchdog(sc, clk, d.closeNets)
	if sc.Plan != nil {
		sc.Plan.Apply(d.target())
	}
	start := clk.Now()
	var replied bool
	switch {
	case open:
		replied = d.driveStations(stations, ats, sreqs) == len(reqs)
	case d.sh != nil:
		_, replied = d.sh.Router.CallAll(reqs)
	default:
		replied = true
		for _, r := range reqs {
			if d.groups[0].Client.SubmitUntilSuccess(r) == "" {
				replied = false
			}
		}
	}
	disarm()
	simTime := clk.Now() - start
	settleRun(sc, clk, d.pendingOutcomes)
	// Every observation — send counters, histories, the side-effect audit
	// — is snapshotted at the settle horizon, a fixed virtual instant,
	// while this goroutine is still attached: it was just woken by the
	// pump, so every protocol goroutine in every group is blocked in a
	// clock primitive and the observed state cannot move. After Exit the
	// clock free-runs, and periodic activity (heartbeats, cleaner-paced
	// cancellations) would race the reads in wall time, making outcomes
	// nondeterministic.
	msgs := 0
	for _, g := range d.groups {
		msgs += g.Net.TotalSent()
	}
	hs := d.histories()
	effects, dups := auditEffects(reqs, d.inForce)
	var wstats wal.Stats
	for _, g := range d.groups {
		wstats = wstats.Plus(g.WALStats())
	}
	var lat workload.LatencySummary
	if open {
		lats := stations[0].Latencies()
		for _, st := range stations[1:] {
			lats = append(lats, st.Latencies()...)
		}
		lat = workload.SummarizeLatencies(lats)
	}
	snap := sc.Net.Metrics.Snapshot() // nil-safe; nil when unobserved
	// Stop the groups while still attached: once this goroutine Exits, a
	// live cluster's periodic loops (cleaners, heartbeats) would free-run
	// on the virtual clock at CPU speed, racing the verdict computation
	// for the host's cores. Stopping first turns the post-Exit schedule
	// into a bounded exit cascade. (Stop is non-blocking and idempotent;
	// the deferred stop becomes a no-op.)
	d.stop()
	clk.Exit()
	for _, g := range d.groups {
		g.Net.Quiesce()
	}

	rep := d.verify(hs, logs, open)
	h := hs[0]
	if len(hs) > 1 {
		h = nil
		for _, gh := range hs {
			h = append(h, gh...)
		}
	}
	o := outcomeFrom(sc, seed, reqs, h, replied)
	o.TimedOut = timedOut()
	if d.sh != nil {
		o.Shards = sc.Shards
		o.ShardReports = rep.Shards
		o.RoutingExact = rep.RoutingExact
	} else {
		o.Report = rep.Shards[0]
	}
	o.XAble = rep.XAble()
	for _, l := range logs {
		o.Attempts += l.Attempts()
	}
	o.Messages = msgs
	o.SimTime = simTime
	o.EffectsInForce = effects
	o.ReplayDuplicates = dups
	o.WALAppends = wstats.Appends
	o.WALSyncTime = wstats.SyncTime
	o.WALCompactions = wstats.Compactions
	o.WALLiveRecords = wstats.LiveRecords
	o.Latency = lat
	o.Obs = snap
	return o
}

// verify checks every group's history against its completion log and, on
// a sharded deployment, audits routing. A closed-loop sharded run is the
// router's merged verdict (shard.Cluster.VerifyHistories); open-loop
// sessions bypass the router, so their routing is audited against the
// ring (auditRing).
func (d deployment) verify(hs []event.History, logs []completionLog, open bool) shard.Report {
	if d.sh != nil && !open {
		return d.sh.VerifyHistories(workload.Registry(), hs)
	}
	rep := shard.Report{RoutingExact: true, Shards: make([]verify.Report, len(logs))}
	for s, l := range logs {
		logged, replies := l.Log()
		rep.Shards[s] = verify.Check(verify.Run{
			Registry:       workload.Registry(),
			Requests:       logged,
			Replies:        replies,
			History:        hs[s],
			SubmitAttempts: l.Attempts(),
			Concurrent:     open,
		})
	}
	if d.sh != nil {
		d.auditRing(&rep, logs)
	}
	return rep
}

// auditEffects is the environment audit over the workload's distinct raw
// (action, input) pairs, read once each in submission order (inForce
// already sums over every round tag of a pair). effects totals the
// applications in force; dups counts the pairs in force more times than
// the workload submitted them. Each such pair is a broken R2: some replica
// applied the effect again without cancelling the earlier application.
// This is the restart plane's sharpest probe: a replica that replays its
// log wrongly (re-executing instead of re-folding) duplicates effects that
// the client-visible reply path never inspects.
func auditEffects(reqs []action.Request, inForce func(action.Name, action.Value) int) (effects, dups int) {
	type pair struct {
		a  action.Name
		iv action.Value
	}
	submitted := make(map[pair]int, len(reqs))
	for _, r := range reqs {
		submitted[pair{r.Action, r.Input}]++
	}
	for _, r := range reqs {
		p := pair{r.Action, r.Input}
		n := submitted[p]
		if n == 0 {
			continue // audited at its first submission
		}
		submitted[p] = 0
		in := inForce(r.Action, r.Input)
		effects += in
		if in > n {
			dups++
		}
	}
	return effects, dups
}
