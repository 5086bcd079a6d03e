package scenario

import (
	"fmt"
	"sync"
	"time"

	"xability/internal/action"
	"xability/internal/core"
	"xability/internal/shard"
	"xability/internal/workload"
)

// openLoopSpec resolves the scenario's arrival spec: an unset Accounts
// inherits the scenario's (already defaulted) account count, so the bank
// the replicas serve always covers the keys the generator draws.
func openLoopSpec(sc Scenario) workload.OpenLoopSpec {
	spec := *sc.OpenLoop
	if spec.Accounts <= 0 {
		spec.Accounts = sc.Accounts
	}
	return spec
}

// partition splits an arrival schedule into one station's worth per
// group — parallel offset/request slices, the Station.Drive calling
// convention — and returns every request in arrival order. On a sharded
// deployment each arrival goes to its key's ring owner up front, so
// sessions flow straight to their group without the router's
// per-request goroutine discipline serializing against the arrival
// pacing. A single cluster takes the whole schedule in exactly sized
// slices, its request slice doubling as the full list.
func (d deployment) partition(arrivals []workload.Arrival) (ats [][]time.Duration, reqs [][]action.Request, all []action.Request) {
	ats = make([][]time.Duration, len(d.groups))
	reqs = make([][]action.Request, len(d.groups))
	if d.sh == nil {
		ats[0] = make([]time.Duration, len(arrivals))
		reqs[0] = make([]action.Request, len(arrivals))
		for i, a := range arrivals {
			ats[0][i], reqs[0][i] = a.At, a.Req
		}
		return ats, reqs, reqs[0]
	}
	all = make([]action.Request, 0, len(arrivals))
	for _, a := range arrivals {
		s := d.sh.Ring().Owner(shard.InputKey(a.Req))
		ats[s] = append(ats[s], a.At)
		reqs[s] = append(reqs[s], a.Req)
		all = append(all, a.Req)
	}
	return ats, reqs, all
}

// driveStations runs each group's arrivals through its station and
// returns the completed-session count. A single station drives on the
// caller; a sharded deployment runs one driver goroutine per group and
// joins on the shared clock's condition (the Drive goroutines always hold
// pending timers, so the untimed wait cannot starve the virtual clock).
func (d deployment) driveStations(stations []*core.Station, ats [][]time.Duration, reqs [][]action.Request) int {
	if d.sh == nil {
		return stations[0].Drive(ats[0], reqs[0])
	}
	clk := d.clock()
	var mu sync.Mutex
	cond := clk.NewCond(&mu)
	done, completed := 0, 0
	for s := range stations {
		s := s
		clk.Go(func() {
			n := stations[s].Drive(ats[s], reqs[s])
			mu.Lock()
			done++
			completed += n
			mu.Unlock()
			cond.Broadcast()
		})
	}
	mu.Lock()
	for done < len(stations) {
		cond.Wait()
	}
	mu.Unlock()
	return completed
}

// auditRing is the open-loop routing audit. The router's Route log is
// empty for open-loop runs (sessions bypass the router), so the audit
// re-derives ownership from the ring: every completed session must have
// run on its key's owner, and no request ID may complete in two groups.
func (d deployment) auditRing(rep *shard.Report, logs []completionLog) {
	seen := make(map[string]int)
	for s, l := range logs {
		logged, _ := l.Log()
		for _, req := range logged {
			if want := d.sh.Ring().Owner(shard.InputKey(req)); want != s {
				rep.RoutingExact = false
				rep.Details = append(rep.Details, fmt.Sprintf(
					"routing: %s completed on shard %d, ring owner is %d", req.ID, s, want))
			}
			if prev, dup := seen[req.ID]; dup {
				rep.RoutingExact = false
				rep.Details = append(rep.Details, fmt.Sprintf(
					"routing: %s completed in shards %d and %d", req.ID, prev, s))
			} else {
				seen[req.ID] = s
			}
		}
	}
}
