package core

import (
	"testing"
	"time"

	"xability/internal/action"
	"xability/internal/simnet"
)

// TestHeartbeatClusterConstructionRace builds and stops heartbeat clusters
// from an unattached goroutine, the way benchmarks and tests construct
// clusters outside any scenario run. A detector starts heartbeating its
// peers as soon as it starts, so every detector endpoint must already be
// registered: a beat to an unregistered process panics the network.
func TestHeartbeatClusterConstructionRace(t *testing.T) {
	reg := action.NewRegistry()
	reg.MustRegister("noop", action.KindIdempotent)
	for i := 0; i < 2000; i++ {
		seed := int64(i + 1)
		c := NewCluster(ClusterConfig{
			Replicas: 3,
			Seed:     seed,
			Net:      simnet.Config{Seed: seed, MaxDelay: 200 * time.Microsecond},
			Detector: DetectorHeartbeat,
			Registry: reg,
		})
		clk := c.Clock()
		clk.Enter()
		c.Stop()
		clk.Exit()
		c.Net.Quiesce()
	}
}
