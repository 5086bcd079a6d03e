package shard

import (
	"time"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/event"
	"xability/internal/simnet"
	"xability/internal/sm"
	"xability/internal/vclock"
)

// Config describes a sharded deployment: N replica groups, each an
// independent core.Cluster, behind one keyspace router.
type Config struct {
	// Shards is the number of replica groups (default 1).
	Shards int
	// Replicas is the replication degree of each group (default 3).
	Replicas int
	// Seed drives the whole deployment; each group derives its own seed
	// from it, so equal (Config, Seed) pairs reproduce equal runs.
	Seed int64
	// Net is the per-group network template. Net.Clock, when set, becomes
	// the deployment's shared clock; nil selects a fresh virtual clock.
	// Every group gets its own network (its own delay stream, link fault
	// plane, and counters) on that one clock.
	Net simnet.Config
	// Consensus and Detector select each group's substrates.
	Consensus core.ConsensusMode
	Detector  core.DetectorMode
	// HeartbeatInterval tunes DetectorHeartbeat; CleanInterval the cleaner.
	HeartbeatInterval time.Duration
	CleanInterval     time.Duration
	// Registry is the shared action vocabulary.
	Registry *action.Registry
	// Setup returns the machine-setup function for one group, so each
	// shard can own its slice of the application state (its own bank).
	Setup func(shard int) func(m *sm.Machine)
	// Key extracts the routing key from a request; nil selects InputKey.
	Key KeyFunc
	// VNodes is the ring's virtual-node count per shard (0 selects
	// DefaultVNodes).
	VNodes int
	// Networks, when non-nil (one per shard), deploys each group onto an
	// existing recycled network instead of building fresh ones — the
	// sharded analogue of core.ClusterConfig.Network. Each must already
	// have been ResetShared with the group's config and the deployment's
	// new shared clock (which the caller then also passes as Net.Clock).
	Networks []*simnet.Network
	// Batch and Costs configure every group's replicas (see core).
	Batch core.BatchConfig
	Costs core.CostModel
	// Durable gives every group its own stable storage (one wal.Store per
	// group, recycled with the group across restarts): group replicas can
	// then crash and restart — including a whole-shard power cycle — and
	// recover from their logs. WALSync, WALSnapshotSync, and WALCompact
	// tune each group's store exactly as in core.ClusterConfig.
	Durable         bool
	WALSync         time.Duration
	WALSnapshotSync time.Duration
	WALCompact      int
}

// Cluster is the cluster-of-clusters runtime: the groups, the ring, and
// the router, on one shared virtual clock.
type Cluster struct {
	clk    vclock.Clock
	ring   *Ring
	groups []*core.Cluster

	// Router is the deployment's client: it owns request routing and the
	// per-shard submission streams.
	Router *Router
}

// GroupSeed derives group s's seed from the deployment seed. Groups must
// see distinct delay and failure-injection streams (a correlated-fault
// scenario should be correlated by the plan, not by accidental seed
// reuse), and the derivation must be pure so runs replay.
func GroupSeed(seed int64, s int64) int64 {
	return seed + (s+1)*0x9E3779B9 // golden-ratio stride keeps groups apart
}

// New assembles and starts a sharded deployment.
func New(cfg Config) *Cluster {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	clk := cfg.Net.Clock
	if clk == nil {
		clk = vclock.NewVirtual()
	}
	key := cfg.Key
	if key == nil {
		key = InputKey
	}
	c := &Cluster{clk: clk, ring: NewRing(cfg.Shards, cfg.VNodes)}
	for s := 0; s < cfg.Shards; s++ {
		netCfg := cfg.Net
		netCfg.Clock = clk
		netCfg.Seed = GroupSeed(cfg.Seed, int64(s))
		var setup func(m *sm.Machine)
		if cfg.Setup != nil {
			setup = cfg.Setup(s)
		}
		var reuse *simnet.Network
		if len(cfg.Networks) == cfg.Shards {
			reuse = cfg.Networks[s]
		}
		c.groups = append(c.groups, core.NewCluster(core.ClusterConfig{
			Replicas:          cfg.Replicas,
			Seed:              GroupSeed(cfg.Seed, int64(s)),
			Net:               netCfg,
			Network:           reuse,
			Consensus:         cfg.Consensus,
			Detector:          cfg.Detector,
			Registry:          cfg.Registry,
			Setup:             setup,
			CleanInterval:     cfg.CleanInterval,
			HeartbeatInterval: cfg.HeartbeatInterval,
			Batch:             cfg.Batch,
			Costs:             cfg.Costs,
			Durable:           cfg.Durable,
			WALSync:           cfg.WALSync,
			WALSnapshotSync:   cfg.WALSnapshotSync,
			WALCompact:        cfg.WALCompact,
		}))
	}
	c.Router = newRouter(c.ring, key, c.groups, clk)
	return c
}

// Clock returns the deployment's shared clock.
func (c *Cluster) Clock() vclock.Clock { return c.clk }

// Shards returns the number of replica groups.
func (c *Cluster) Shards() int { return len(c.groups) }

// Ring returns the deployment's keyspace partitioner.
func (c *Cluster) Ring() *Ring { return c.ring }

// Group returns replica group s — the per-shard fault surface (its own
// network, detectors, and environment).
func (c *Cluster) Group(s int) *core.Cluster { return c.groups[s] }

// History returns group s's observed event history, after quiescing its
// network.
func (c *Cluster) History(s int) event.History {
	g := c.groups[s]
	g.Net.Quiesce()
	return g.Observer.History()
}

// Histories snapshots every group's history in shard order, quiescing
// each group once — the shared input for per-shard verification and the
// merged trace (fetch once, use for both).
func (c *Cluster) Histories() []event.History {
	out := make([]event.History, len(c.groups))
	for s := range c.groups {
		out[s] = c.History(s)
	}
	return out
}

// Quiesce blocks until every group's in-flight deliveries have settled.
func (c *Cluster) Quiesce() {
	for _, g := range c.groups {
		g.Net.Quiesce()
	}
}

// EffectsInForce sums the groups' environment audits for one raw
// (action, input) pair. The owner group should account for every effect;
// summing over all groups means a mis-routed duplicate executed by a
// non-owner is counted, not hidden.
func (c *Cluster) EffectsInForce(a action.Name, iv action.Value) int {
	total := 0
	for _, g := range c.groups {
		total += g.Env.InForceTotal(a, iv)
	}
	return total
}

// Stop shuts every group down.
func (c *Cluster) Stop() {
	for _, g := range c.groups {
		g.Stop()
	}
}
