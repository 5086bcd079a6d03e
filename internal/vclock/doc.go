// Package vclock provides the simulation's notion of time: a virtual
// discrete-event clock (the default everywhere) and a real-time clock with
// the same interface.
//
// # Virtual vs real time
//
// The system model of the paper (§5.2) is an asynchronous network: message
// delays are unbounded but finite, and nothing in the protocol may depend
// on actual durations. Simulating such a system with real sleeps makes a
// run's speed proportional to the delays it simulates; simulating it with a
// virtual clock makes a run's speed proportional to the work it performs.
// Under the virtual clock a scenario that "waits" 2 ms for a crash to land
// or 50 µs for a message to arrive performs a heap operation instead of a
// sleep, so experiment sweeps run as fast as the hardware allows.
//
// The virtual clock is a discrete-event scheduler: pending wake-ups (sleep
// deadlines, message deliveries, poll timeouts) form a priority queue keyed
// by virtual deadline, tie-broken by scheduling sequence number. Goroutines
// participating in the simulation attach to the clock (Clock.Go,
// Clock.Enter) and run one at a time: the running goroutine holds a run token
// until it blocks in a clock primitive, exits, or detaches. A spawn (Go)
// or an outside goroutine attaching while the token is held (Enter) queues
// as an event at the current instant instead of running alongside the
// holder. Whenever the token is free, the clock pops the earliest event,
// advances virtual time to its deadline, and hands the token to exactly
// one goroutine. Execution is thereby serialized on any number of OS
// threads.
//
// # How seeds map to schedules
//
// Message delays are drawn from simnet's seeded generator in send order,
// and the event queue's (deadline, sequence) order is a pure function of
// those draws and of the order in which timers are created. Because the
// clock runs one event at a time, the interleaving of protocol steps — and
// with it the delivery order, the observed event history, and the message
// counters — reproduces exactly for equal seeds. Periodic activities
// (failure-detector heartbeats, the server cleaner) stagger their first
// deadline by a hash of their process ID so that symmetric loops do not
// race on equal deadlines.
//
// Real time remains available by passing vclock.NewReal() as the network
// clock (simnet.Config.Clock); everything then behaves as a conventional
// concurrent simulation.
package vclock
