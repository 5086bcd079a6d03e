package main

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// refEvery is how often a timed loop stops to time the host reference,
// and refRounds how many rounds of refWork one timing takes: about 25ms on
// a 2-vCPU host, long enough to feel a host that is taking CPU time away
// in slices rather than slowing every instruction.
const (
	refEvery  = 250 * time.Millisecond
	refRounds = 4
)

var refSink atomic.Int64

// hostRef times the host reference — a fixed piece of work that calls no
// repository code, so no change to the program can move it — on `workers`
// goroutines at once, like the sweeps, and emits the time as a "ref"
// event. Every worker process times it next to its measurements; run.py
// divides the wall-clock metrics by how much slower than usual the host
// ran the reference, which takes out the drift of a shared host's speed
// from one minute to the next.
func hostRef(workers int) {
	elapsed := stopwatch()
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() { //xvet:ok baregoroutine the host reference runs outside every virtual clock
			defer wg.Done()
			for range refRounds {
				refSink.Add(int64(refWork()))
			}
		}()
	}
	wg.Wait() //xvet:ok detachedwait joins the host reference goroutines; no clock is involved
	emit(map[string]any{"ev": "ref", "ns": elapsed().Nanoseconds()})
}

// refWork is one share of the reference: string-keyed map inserts and
// lookups, a sort, and a channel ping-pong between two goroutines —
// allocation, hashing, branching and goroutine hand-offs, the kinds of work
// the scenario runs spend their time on. It returns a checksum so that
// none of it can be optimised away.
func refWork() int {
	keys := make([]string, 4096)
	m := make(map[string]int)
	for i := range keys {
		keys[i] = strconv.Itoa(i * 7919)
		m[keys[i]] = i
	}
	sum := 0
	for range 4 {
		for _, k := range keys {
			sum += m[k]
		}
	}
	xs := make([]int, 20000)
	x := uint32(1)
	for i := range xs {
		x = x*1664525 + 1013904223
		xs[i] = int(x >> 8)
	}
	slices.Sort(xs)
	sum += xs[len(xs)/2]
	ping, pong := make(chan int), make(chan int)
	go func() { //xvet:ok baregoroutine the host reference runs outside every virtual clock
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	for i := range 2000 {
		ping <- i
		sum += <-pong //xvet:ok detachedwait the host reference's ping-pong runs outside every virtual clock
	}
	close(ping)
	for range pong {
	}
	return sum
}
