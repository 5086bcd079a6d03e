// Command perfbench is the measurement worker of the repository benchmark.
// run.py builds it and runs one phase per process, reading one JSON object
// per line from its standard output; README.md describes the phases and
// the metrics run.py derives from them.
//
//	perfbench -workload storm -mode sweep -base 1000001 -runs 1024 -seconds 5
//
// Every mode first sets up (resolves the scenario, runs the workload's
// fixed warm-up) and prints {"ev":"ready"}; then it runs its timed part and
// ends with {"ev":"done"}. The sweep and serial modes cycle over the seed
// window base, base+1, ..., base+runs-1 until the window has been covered
// once and the time budget is spent. A run that panics kills the process:
// run.py counts it as failed and starts a new worker after the lost seed.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"xability/internal/action"
	"xability/internal/event"
	"xability/internal/obs"
	"xability/internal/scenario"
)

func main() {
	name := flag.String("workload", "", "workload name (failover, storm, durable, openloop)")
	mode := flag.String("mode", "", "setup, sweep, tsweep, serial, tserial, ladder or micro")
	base := flag.Int64("base", 1, "first seed of the timed part")
	seconds := flag.Float64("seconds", 1, "time budget of the timed part")
	runs := flag.Int("runs", 0, "sweep and serial modes: size of the seed window; ladder: seeds per rung")
	flag.Parse()

	b, sc, err := findBench(*name)
	if err == nil && !slices.Contains([]string{"setup", "sweep", "tsweep", "serial", "tserial", "ladder", "micro"}, *mode) {
		err = fmt.Errorf("unknown mode %q", *mode)
	}
	if err == nil && *runs <= 0 && *mode != "setup" && *mode != "micro" {
		err = fmt.Errorf("mode %s needs -runs > 0", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(3)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	workers := runtime.NumCPU()

	for range 2 {
		scenario.SweepWithOptions(sc, scenario.Seeds(*base, b.Warm), scenario.SweepOptions{Workers: workers})
	}
	scenario.Execute(sc, *base)
	emit(map[string]any{"ev": "ready", "chunk": b.Chunk})
	hostRef(workers)

	switch *mode {
	case "setup":
	case "sweep", "tsweep":
		err = sweep(b, sc, *base, *runs, budget, workers, *mode == "tsweep")
	case "serial", "tserial":
		serial(sc, *base, budget, *runs, workers, *mode == "tserial")
	case "ladder":
		ladder(sc, *base, *runs)
	case "micro":
		micro()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(3)
	}
	hostRef(workers)
	emit(map[string]any{
		"ev":         "done",
		"rss_kb":     peakRSSKB(),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"workers":    workers,
	})
}

// stopwatch starts a wall-clock timer and returns its reading function.
func stopwatch() func() time.Duration {
	start := time.Now()                                      //xvet:ok walltime the benchmark measures host time around virtual-time runs by design
	return func() time.Duration { return time.Since(start) } //xvet:ok walltime reading the benchmark's stopwatch
}

// emit writes one JSON line. Stdout is unbuffered, so run.py sees each
// line as soon as it is written; a later panic loses nothing emitted.
func emit(v map[string]any) {
	line, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain numbers, strings and slices are emitted
	}
	os.Stdout.Write(append(line, '\n'))
}

// sweep runs consecutive chunks of the seed window [base, base+window)
// through scenario.SweepWithOptions — the path `xsim -sweep` takes —
// starting over at base at the window's end, until the window has been
// covered once and the budget is spent. Each chunk reports its wall time,
// heap allocation deltas and failing seeds. With traced set, every run
// also stamps the obs metrics registry and the whole timed part runs under
// a CPU profile, folded per layer at the end.
func sweep(b bench, sc scenario.Scenario, base int64, window int, budget time.Duration, workers int, traced bool) error {
	opts := scenario.SweepOptions{Workers: workers, Metrics: traced}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
	}
	elapsed := stopwatch()
	var last time.Duration
	sinceRef := stopwatch()
	end := base + int64(window)
	// Stop once the window is covered and another chunk would overrun the
	// budget by more than half.
	for next, covered := base, 0; covered < window || elapsed()+last/2 < budget; {
		n := int(min(int64(b.Chunk), end-next))
		if sinceRef() >= refEvery {
			hostRef(workers)
			sinceRef = stopwatch()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		chunk := stopwatch()
		d := scenario.SweepWithOptions(sc, scenario.Seeds(next, n), opts)
		last = chunk()
		runtime.ReadMemStats(&after)
		failing := d.Failing
		if failing == nil {
			failing = []int64{}
		}
		emit(map[string]any{
			"ev":      "chunk",
			"from":    next,
			"seeds":   d.Runs,
			"wall_ns": last.Nanoseconds(),
			"mallocs": after.Mallocs - before.Mallocs,
			"bytes":   after.TotalAlloc - before.TotalAlloc,
			"failing": failing,
			"msgs":    d.Messages,
		})
		covered += n
		if next += int64(n); next == end {
			next = base
		}
	}
	if !traced {
		return nil
	}
	pprof.StopCPUProfile()
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return fmt.Errorf("fold cpu profile: %w", err)
	}
	emit(map[string]any{"ev": "profile", "shares": shares})
	return nil
}

// serial runs fresh scenario.Execute calls — what one `xsim -seed N`,
// replay or shrink step costs — one at a time over the seed window
// [base, base+window), starting over at base at its end, until the window
// has been covered once and the budget is spent. Only the Execute call is
// timed. Every run is then re-verified from the outside (checkRun), and
// with traced set it runs under the obs metrics registry, whose counters
// are reported.
func serial(sc scenario.Scenario, base int64, budget time.Duration, window, workers int, traced bool) {
	var m *obs.Metrics
	if traced {
		m = obs.NewMetrics()
	}
	elapsed, sinceRef := stopwatch(), stopwatch()
	for i := 0; i < window || elapsed() < budget; i++ {
		if sinceRef() >= refEvery {
			hostRef(workers)
			sinceRef = stopwatch()
		}
		seed := base + int64(i%window)
		var o scenario.Outcome
		m.Reset()
		run := stopwatch()
		if traced {
			o = scenario.ExecuteObserved(sc, seed, &obs.Run{Metrics: m})
		} else {
			o = scenario.Execute(sc, seed)
		}
		ns := run().Nanoseconds()
		check := stopwatch()
		rep := checkRun(sc, seed, o)
		checkNS := check().Nanoseconds()
		var execs, cancels int
		for _, e := range o.History {
			_, kind := action.Base(e.Action)
			switch {
			case e.Type == event.Start && kind != action.KindCancel && kind != action.KindCommit:
				execs++
			case e.Type == event.Complete && kind == action.KindCancel:
				cancels++
			}
		}
		rec := map[string]any{
			"ev":         "run",
			"seed":       seed,
			"ns":         ns,
			"xable":      o.XAble,
			"replied":    o.Replied,
			"timed_out":  o.TimedOut,
			"recheck":    rep.R3Strict || rep.R3Projected,
			"check_ns":   checkNS,
			"events":     len(o.History),
			"requests":   o.Requests,
			"msgs":       o.Messages,
			"attempts":   o.Attempts,
			"executions": execs,
			"cancels":    cancels,
			"sim_ns":     o.SimTime.Nanoseconds(),
			"p50_ns":     o.Latency.P50.Nanoseconds(),
			"p99_ns":     o.Latency.P99.Nanoseconds(),
			"wal_live":   o.WALLiveRecords,
		}
		if o.Obs != nil {
			counters := make(map[string]int64, len(o.Obs.Counters))
			for c, v := range o.Obs.Counters {
				counters[obs.Counter(c).Name()] = v
			}
			rec["counters"] = counters
		}
		emit(rec)
	}
}

// ladder runs the openloop capacity probe: fresh seeds at every rung of
// the offered-load ladder. The capacity is the highest rung whose median
// run keeps its virtual P99 latency under vcapP99Limit with no failed run.
func ladder(sc scenario.Scenario, base int64, runs int) {
	var vcap float64
	for _, rate := range ladderRates {
		rsc := atRate(sc, rate)
		p99s := make([]time.Duration, runs)
		ok := true
		for i := range p99s {
			o := scenario.Execute(rsc, base+int64(i))
			p99s[i] = o.Latency.P99
			ok = ok && o.XAble && o.Replied && !o.TimedOut
		}
		slices.Sort(p99s)
		med := p99s[len(p99s)/2]
		emit(map[string]any{"ev": "rung", "rate": rate, "p99_us": med.Microseconds(), "ok": ok})
		if ok && med < vcapP99Limit {
			vcap = rate
		}
	}
	emit(map[string]any{"ev": "vcap", "ops_per_vs": vcap, "p99_limit_us": vcapP99Limit.Microseconds()})
}

// peakRSSKB reads the process's peak resident set (VmHWM) from procfs; 0
// where procfs is unavailable.
func peakRSSKB() int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}
