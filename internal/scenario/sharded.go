package scenario

import (
	"xability/internal/shard"
	"xability/internal/simnet"
	"xability/internal/sm"
	"xability/internal/vclock"
	"xability/internal/workload"
)

// shardedTarget adapts a shard.Cluster to the fault plane. It satisfies
// Target — unqualified ops reach it and fan out per group via eachGroup —
// and Sharded, which is how shard-qualified ops find single groups.
type shardedTarget struct{ c *shard.Cluster }

func (t shardedTarget) Clock() vclock.Clock { return t.c.Clock() }

// Network returns the first group's network. Plan ops never call it on a
// sharded target (the link ops fan out through eachGroup / shardOf);
// direct callers wanting one group's fault plane should use
// ShardTarget(s).Network().
func (t shardedTarget) Network() *simnet.Network { return t.c.Group(0).Net }

func (t shardedTarget) CrashServer(i int) {
	for s := 0; s < t.c.Shards(); s++ {
		t.c.Group(s).CrashServer(i)
	}
}

func (t shardedTarget) SuspectEverywhere(target simnet.ProcessID, v bool) {
	for s := 0; s < t.c.Shards(); s++ {
		t.c.Group(s).SuspectEverywhere(target, v)
	}
}

func (t shardedTarget) ClientSuspect(target simnet.ProcessID, v bool) {
	for s := 0; s < t.c.Shards(); s++ {
		t.c.Group(s).ClientSuspect(target, v)
	}
}

func (t shardedTarget) NumShards() int           { return t.c.Shards() }
func (t shardedTarget) ShardTarget(s int) Target { return t.c.Group(s) }

// ApplySharded schedules the plan against a sharded deployment, with the
// same clock-held calling convention as Plan.Apply.
func (p *Plan) ApplySharded(c *shard.Cluster) { p.Apply(shardedTarget{c}) }

// takeGroups returns per-group networks ready for a seeded sharded run,
// plus the fresh shared clock they run on — the sharded extension of
// runScratch.network. On reuse each group's network is recycled in shard
// order via simnet.ResetShared (the first drain quiesces the old shared
// clock; the rest return immediately); the first call, or a shard-count
// change, builds fresh networks that later seeds then recycle. Nil
// networks mean build-from-scratch: shard.New deploys its own networks on
// the returned clock (a network whose previous run failed to wind down is
// abandoned rather than risked, mirroring network).
func (s *runScratch) takeGroups(base simnet.Config, seed int64, shards int) ([]*simnet.Network, vclock.Clock) {
	clk := vclock.NewVirtual()
	if s == nil {
		return nil, clk
	}
	cfgFor := func(g int) simnet.Config {
		cfg := base
		cfg.Clock = clk
		cfg.Seed = shard.GroupSeed(seed, int64(g))
		return cfg
	}
	if len(s.groups) == shards {
		for g, net := range s.groups {
			if !net.ResetShared(cfgFor(g)) {
				s.groups = nil
				return nil, clk
			}
		}
		return s.groups, clk
	}
	s.groups = make([]*simnet.Network, shards)
	for g := range s.groups {
		s.groups[g] = simnet.New(cfgFor(g))
	}
	return s.groups, clk
}

// shardConfig assembles one seeded sharded deployment config, with the
// scratch's recycled per-group networks when available. accounts sizes
// each group's bank (open-loop runs size it from the arrival spec).
func shardConfig(sc Scenario, seed int64, scratch *runScratch, accounts int) shard.Config {
	banks := make([]*workload.Bank, sc.Shards)
	for s := range banks {
		banks[s] = workload.NewBank(accounts, sc.Opening)
	}
	netCfg := netConfig(sc, seed)
	nets, clk := scratch.takeGroups(netCfg, seed, sc.Shards)
	netCfg.Clock = clk
	return shard.Config{
		Shards:            sc.Shards,
		Replicas:          sc.Replicas,
		Seed:              seed,
		Net:               netCfg,
		Networks:          nets,
		Consensus:         sc.Consensus,
		Detector:          sc.Detector,
		HeartbeatInterval: sc.HeartbeatInterval,
		Registry:          workload.Registry(),
		Setup:             func(s int) func(m *sm.Machine) { return banks[s].Setup() },
		Batch:             sc.Batch,
		Costs:             sc.Costs,
		Durable:           sc.Durable,
		WALSync:           sc.WALSync,
		WALSnapshotSync:   sc.WALSnapshotSync,
		WALCompact:        sc.WALCompact,
	}
}
