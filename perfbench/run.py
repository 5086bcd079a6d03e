#!/usr/bin/env python3
"""Repository benchmark: seeded fault-schedule sweeps of the x-ability
replication protocol, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload storm --seed 1 --seconds 10 --trace 0

It builds the Go worker in perfbench/ (into .bench_build/), runs each
measurement phase in a worker process, and prints a report followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
the end-to-end metrics, --trace 1 the per-layer ones. README.md lists the
workloads, the metrics and what each layer metric should move.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKER = os.path.join(BUILD, "perfbench")

# workload -> (the xsim arguments that replay one of its seeds, the sweep
# and the serial window: how many seeds one sweep or serial worker cycles
# over). Sweep windows are a whole number of the worker's chunks
# (workloads.go). Each worker covers its window once whatever the time
# budget, so the seeds a run checks are fixed by --seed alone; the windows
# take well under a round's share of --seconds on a 2-vCPU host, except
# openloop's serial one, sized for enough fresh runs per round instead.
WORKLOADS = {
    "failover": ("-scenario crash-failover", 2048, 1024),
    "storm": ("-scenario delay-storm -ct", 1024, 1024),
    "durable": ("-scenario power-cycle", 1024, 1024),
    "openloop": ("-scenario open-loop-batch", 128, 250),
}
SEED_STRIDE = 1_000_000  # --seed n checks seeds n*SEED_STRIDE+1, +2, ...
HOLDOUT_OFFSET = 1 << 44  # --holdout moves the seeds to a range kept out of development
SWEEP_SHARE = 0.6  # of --seconds; the serial pass gets the rest
ROUNDS = 4  # worker processes per measurement phase
LADDER_RUNS = 3
# The host reference time (hostref.go) on a 2-vCPU host at its usual speed.
# The wall-clock end-to-end metrics are scaled to a host that runs the
# reference in this time: on a host that runs it 20% slower, times are
# divided, and rates multiplied, by 1.2. A shared host's speed drifts by
# up to 2x over minutes; the reference moves with it, and no change to the
# program can move the reference.
REF_NS = 25_000_000
MAX_CRASHES = 100
CRASH_EXIT = 2  # a Go panic or fatal runtime error
SWEEP_MODES = ("sweep", "tsweep")
SERIAL_MODES = ("serial", "tserial")


class BenchError(Exception):
    pass


def go_env():
    """The go command's environment, with every cache inside the checkout."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    go = shutil.which("go") or "/usr/local/go/bin/go"
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        [go, "build", "-buildvcs=false", "-o", WORKER, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("go build failed")


def source_id():
    """The commit, or a hash of the Go sources when the tree is not a git
    checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "run.py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


class Phase:
    """One measurement phase, run in worker processes. The sweep and serial
    modes cycle over the seed window [base, base+runs). A worker killed by a
    panic while measuring loses the seed (serial modes) or the chunk of
    seeds (sweep modes) it was running; the loss is recorded as a crash and
    a new worker goes on over the rest of the window, after the lost seeds,
    with what is left of the budget. A worker killed while setting up is
    recorded as a crash and run again."""

    def __init__(self, workload, mode, base, seconds=0.0, runs=0):
        self.workload, self.mode = workload, mode
        self.events = []  # every event line of every worker
        self.ready_s = []  # set-up time of each worker that got ready
        self.refs = []  # host reference times (ns) of every worker
        self.crashes = []  # {"mode", "seeds": [first, last]} per lost run
        self.rss_kb = []  # peak resident set of each worker that finished
        self.meta = {}
        self._run(base, seconds, runs)

    def of(self, ev):
        return [e for e in self.events if e["ev"] == ev]

    def slowdown(self):
        """How much slower than REF_NS the host ran the reference while
        this phase ran."""
        if not self.refs:
            raise BenchError(f"{self.mode}: no host reference time")
        return statistics.median(self.refs) / REF_NS

    def _run(self, base, seconds, runs):
        while True:
            kept = len(self.events)
            done, nxt, ready_at, chunk, end = self._worker(base, seconds, runs)
            if done:
                return
            if len(self.crashes) >= MAX_CRASHES:
                raise BenchError(f"{self.mode}: more than {MAX_CRASHES} worker crashes")
            if ready_at is None or self.mode not in SWEEP_MODES + SERIAL_MODES:
                # Lost while setting up, or in a phase that cannot resume:
                # run it again.
                del self.events[kept:]
                self.crashes.append({"mode": self.mode, "seeds": None})
                continue
            stop = base + runs  # the window's end
            lost = [nxt, min(nxt + chunk, stop) - 1 if self.mode in SWEEP_MODES else nxt]
            self.crashes.append({"mode": self.mode, "seeds": lost})
            seconds = max(0.0, seconds - (end - ready_at))
            base, runs = lost[1] + 1, stop - lost[1] - 1
            if runs <= 0:
                return

    def _worker(self, base, seconds, runs):
        """Runs one worker. Returns whether it finished, the seed it would
        have run next, when it got ready, its chunk size and when it ended."""
        cmd = [WORKER, "-workload", self.workload, "-mode", self.mode, "-base", str(base),
               "-seconds", repr(seconds), "-runs", str(runs)]
        start = time.monotonic()
        ready_at, chunk, nxt = None, 0, base
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            for line in proc.stdout:
                ev = json.loads(line)
                if ev["ev"] == "ready":
                    ready_at = time.monotonic()
                    self.ready_s.append(ready_at - start)
                    chunk = ev["chunk"]
                    continue
                if ev["ev"] == "ref":
                    self.refs.append(ev["ns"])
                    continue
                if ev["ev"] == "chunk":
                    nxt = ev["from"] + ev["seeds"]
                elif ev["ev"] == "run":
                    nxt = ev["seed"] + 1
                elif ev["ev"] == "done":
                    self.rss_kb.append(ev["rss_kb"])
                    self.meta = ev
                self.events.append(ev)
                if runs and nxt == base + runs:
                    nxt = base
        finally:
            proc.stdout.close()
            rc = proc.wait()
        end = time.monotonic()
        if rc == 0:
            return True, nxt, ready_at, chunk, end
        if rc != CRASH_EXIT:
            raise BenchError(f"worker {' '.join(cmd)} exited with {rc}")
        return False, nxt, ready_at, chunk, end


def pct(values, q):
    """Nearest-rank percentile (q in [0, 100])."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def ratio(num, den):
    return num / den if den else 0.0


def run_failed(r):
    return not (r["xable"] and r["replied"]) or r["timed_out"]


class Result:
    """Accumulates the seeds checked, the failing seeds and the correctness
    checks across phases. The timed loops run each seed of their window one
    or more times, so a run counts distinct seeds: attempted is the number
    of seeds checked, failed the number that failed in any of their runs.
    Both are fixed by the seed base wherever failures are deterministic. A
    worker crash fails the seeds it lost; a crash while setting up counts
    as one failed attempt of its own."""

    def __init__(self):
        self.seeds = set()
        self.failing = set()
        self.crashed = []
        self.correct = True
        self.problems = []

    @property
    def attempted(self):
        return len(self.seeds)

    @property
    def failed(self):
        return len(self.failing)

    def add_sweep(self, ph):
        for c in ph.of("chunk"):
            self.seeds.update(range(c["from"], c["from"] + c["seeds"]))
            self.failing.update(c["failing"])
        self.add_crashes(ph)

    def add_serial(self, ph):
        for r in ph.of("run"):
            self.seeds.add(r["seed"])
            if run_failed(r):
                self.failing.add(r["seed"])
            if r["recheck"] != r["xable"]:
                self.correct = False
                self.problems.append(f"seed {r['seed']}: run says x-able={r['xable']}, "
                                     f"re-check says {r['recheck']}")
        self.add_crashes(ph)

    def add_crashes(self, ph):
        for c in ph.crashes:
            self.crashed.append(c)
            lost = range(c["seeds"][0], c["seeds"][1] + 1) if c["seeds"] else [f"setup-{len(self.crashed)}"]
            self.seeds.update(lost)
            self.failing.update(lost)


def metric(value, unit):
    return {"value": value, "unit": unit}


def host(ph):
    """The Go version and parallelism a phase's worker ran with."""
    return {k: ph.meta.get(k) for k in ("go", "gomaxprocs", "nproc", "workers")}


def sweep_rate(chunks):
    """Median seeds per wall second over sweep chunks."""
    return statistics.median(c["seeds"] / c["wall_ns"] * 1e9 for c in chunks)


def scaled(phases, values):
    """Each phase's values(phase) scaled to the reference host speed: times
    divided by the phase's slowdown. Rates pass 1/rate."""
    return [v / ph.slowdown() for ph in phases for v in values(ph)]


def end_to_end(workload, base, seconds, res, info):
    # The sweep and the serial pass alternate over ROUNDS worker pairs, so
    # both sample the whole run rather than one half of it each. Round r
    # cycles over the r-th window of seeds from base on.
    sweeps, serials = [], []
    _, window, serial_window = WORKLOADS[workload]
    for r in range(ROUNDS):
        sweeps.append(Phase(workload, "sweep", base + r * window, seconds * SWEEP_SHARE / ROUNDS, window))
        serials.append(Phase(workload, "serial", base + r * serial_window,
                             seconds * (1 - SWEEP_SHARE) / ROUNDS, serial_window))
    phases = sweeps + serials
    for ph in sweeps:
        res.add_sweep(ph)
    for ph in serials:
        res.add_serial(ph)

    chunks = [c for ph in sweeps for c in ph.of("chunk")]
    seeds = sum(c["seeds"] for c in chunks)
    runs = [r for ph in serials for r in ph.of("run")]
    # The virtual figures take each seed once: a seed's runs repeat it, and
    # how often a seed ran depends on the host's speed.
    ok = list({r["seed"]: r for r in reversed(runs) if not run_failed(r)}.values())
    if not chunks or not ok:
        raise BenchError("no completed seeds to measure")
    if workload == "openloop":
        vlat50 = statistics.median(r["p50_ns"] for r in ok) / 1e3
        vlat99 = statistics.median(r["p99_ns"] for r in ok) / 1e3
        ladder = Phase(workload, "ladder", base, runs=LADDER_RUNS)
        phases.append(ladder)
        vcap = ladder.of("vcap")[0]
        info.update(vcap_ops_per_vs=vcap["ops_per_vs"], vcap_p99_limit_us=vcap["p99_limit_us"],
                    ladder=ladder.of("rung"))
    else:
        per_req = [r["sim_ns"] / r["requests"] / 1e3 for r in ok]
        vlat50, vlat99 = pct(per_req, 50), pct(per_req, 99)
    ms = [r["ns"] / 1e6 for r in runs]
    ready = [t for ph in phases for t in ph.ready_s]
    rss = [kb for ph in phases for kb in ph.rss_kb]
    # The wall-clock metrics, scaled to the reference host speed; info
    # keeps them as measured.
    chunk_s = scaled(sweeps, lambda ph: [c["wall_ns"] / 1e9 / c["seeds"] for c in ph.of("chunk")])
    run_ms = scaled(serials, lambda ph: [r["ns"] / 1e6 for r in ph.of("run")])
    setup_s = scaled(phases, lambda ph: ph.ready_s)
    info.update(serial_runs=len(ms), sweep_seeds=seeds, sweep_chunks=len(chunks),
                run_ms_p99=pct(run_ms, 99), rss_kb=rss, setup_samples=[round(t, 4) for t in ready],
                chunk_rates=[round(c["seeds"] / c["wall_ns"] * 1e9) for c in chunks],
                measured_seeds_per_s=sweep_rate(chunks), measured_run_ms_p50=pct(ms, 50),
                measured_setup_s=statistics.median(ready),
                host_slowdown=[round(ph.slowdown(), 3) for ph in phases])
    info.update(host(sweeps[0]))
    return {
        "seeds_per_s": metric(1 / statistics.median(chunk_s), "1/s"),
        "run_ms_p50": metric(pct(run_ms, 50), "ms"),
        "allocs_per_seed": metric(sum(c["mallocs"] for c in chunks) / seeds, "1/seed"),
        "bytes_per_seed": metric(sum(c["bytes"] for c in chunks) / seeds, "B/seed"),
        "max_rss_mb": metric(statistics.median(rss) / 1024, "MB"),
        "setup_s": metric(statistics.median(setup_s), "s"),
        "vlat_p50_us": metric(vlat50, "vus"),
        "vlat_p99_us": metric(vlat99, "vus"),
        "msgs_per_op": metric(sum(r["msgs"] for r in ok) / sum(r["requests"] for r in ok), "1/request"),
    }


def per_layer(workload, base, seconds, res, info):
    # Untraced and traced sweeps alternate over ROUNDS worker pairs on the
    # same window of seeds; the untraced serial pass cycles over the serial
    # window, and the traced one runs each of its seeds once.
    plain, traced = [], []
    _, window, serial_window = WORKLOADS[workload]
    for _ in range(ROUNDS):
        plain.append(Phase(workload, "sweep", base, seconds / 2 / ROUNDS, window))
        traced.append(Phase(workload, "tsweep", base, seconds / 2 / ROUNDS, window))
    serial = Phase(workload, "serial", base, seconds / 4, serial_window)
    plain_runs = {}
    for r in serial.of("run"):
        plain_runs.setdefault(r["seed"], r)
    tserial = Phase(workload, "tserial", base, 0, serial_window)
    micro = {m["name"]: m for m in Phase(workload, "micro", base).of("micro")}
    for ph in plain + traced:
        res.add_sweep(ph)
    for ph in (serial, tserial):
        res.add_serial(ph)

    profiles = [p["shares"] for ph in traced for p in ph.of("profile")]
    if not profiles:
        raise BenchError("traced sweep produced no profile")
    samples = sum(p["samples"] for p in profiles)
    share = {k: sum(p[k] * p["samples"] for p in profiles) / samples for k in profiles[0] if k != "samples"}

    runs = [r for r in tserial.of("run") if r["seed"] in plain_runs]
    if not runs:
        raise BenchError("no seed completed in both serial passes")
    nondet = sum(1 for r in runs
                 if any(r[k] != plain_runs[r["seed"]][k] for k in ("msgs", "attempts", "sim_ns")))
    n = len(runs)

    def total(key):
        return sum(r["counters"][key] for r in runs)

    reqs = sum(r["requests"] for r in runs)
    check_ms = [r["check_ns"] / 1e6 for r in runs]
    untraced_rate = sweep_rate([c for ph in plain for c in ph.of("chunk")])
    traced_rate = sweep_rate([c for ph in traced for c in ph.of("chunk")])
    info.update(traced_seeds=n, profile_samples=samples, cpu_share_sum=sum(share[k] for k in LAYERS),
                untraced_seeds_per_s=untraced_rate, traced_seeds_per_s=traced_rate, **host(plain[0]))
    return {
        "setup.cpu_share": metric(share["setup"], "frac"),
        "setup.new_cluster_us": metric(micro["setup.new_cluster"]["ns_op"] / 1e3, "us"),
        "setup.allocs_per_cluster": metric(micro["setup.new_cluster"]["allocs_op"], "1/cluster"),
        "setup.bytes_per_cluster": metric(micro["setup.new_cluster"]["bytes_op"], "B/cluster"),
        "vclock.cpu_share": metric(share["vclock"], "frac"),
        "vclock.handoff_share": metric(share["vclock.handoff"], "frac"),
        "vclock.handoff_ns": metric(micro["vclock.handoff"]["ns_op"], "ns"),
        "vclock.handoff_allocs": metric(micro["vclock.handoff"]["allocs_op"], "1/op"),
        "vclock.nondet_seeds": metric(nondet, "count"),
        "simnet.cpu_share": metric(share["simnet"], "frac"),
        "simnet.msgs_per_seed": metric(sum(r["msgs"] for r in runs) / n, "1/seed"),
        "simnet.dropped_per_seed": metric(total("msg.dropped") / n, "1/seed"),
        "simnet.sendrecv_ns": metric(micro["simnet.sendrecv"]["ns_op"], "ns"),
        "simnet.sendrecv_allocs": metric(micro["simnet.sendrecv"]["allocs_op"], "1/op"),
        "fd.cpu_share": metric(share["fd"], "frac"),
        "fd.heartbeats_per_seed": metric(total("msg.heartbeat") / n, "1/seed"),
        "fd.heartbeat_ns": metric(micro["fd.heartbeat"]["ns_op"], "ns"),
        "fd.suspicions_per_seed": metric(total("fd.suspicions") / n, "1/seed"),
        "consensus.cpu_share": metric(share["consensus"], "frac"),
        "cons.proposals_per_seed": metric(total("cons.proposals") / n, "1/seed"),
        "cons.rounds_per_seed": metric(total("cons.rounds") / n, "1/seed"),
        "cons.retransmits_per_seed": metric(total("cons.retransmits") / n, "1/seed"),
        "cons.decisions_per_proposal": metric(ratio(total("cons.decisions"), total("cons.proposals")), "1/proposal"),
        "consensus.decide_us": metric(micro["consensus.decide"]["ns_op"] / 1e3, "us"),
        "consensus.decide_allocs": metric(micro["consensus.decide"]["allocs_op"], "1/op"),
        "core.cpu_share": metric(share["core"], "frac"),
        "core.attempts_per_request": metric(sum(r["attempts"] for r in runs) / reqs, "1/request"),
        "core.executions_per_request": metric(sum(r["executions"] for r in runs) / reqs, "1/request"),
        "core.cancels_per_seed": metric(sum(r["cancels"] for r in runs) / n, "1/seed"),
        "core.takeovers_per_seed": metric(total("req.takeovers") / n, "1/seed"),
        "core.failovers_per_seed": metric(total("req.failovers") / n, "1/seed"),
        "batch.reqs_per_slot": metric(ratio(total("batch.reqs"), total("batch.slots")), "1/slot"),
        "batch.slots_per_seed": metric(total("batch.slots") / n, "1/seed"),
        "wal.cpu_share": metric(share["wal"], "frac"),
        "wal.appends_per_seed": metric(total("wal.appends") / n, "1/seed"),
        "wal.replayed_per_seed": metric(total("wal.replayed") / n, "1/seed"),
        "wal.compactions_per_seed": metric(total("wal.compactions") / n, "1/seed"),
        "wal.live_records_per_seed": metric(sum(r["wal_live"] for r in runs) / n, "1/seed"),
        "wal.append_ns": metric(micro["wal.append"]["ns_op"], "ns"),
        "wal.append_allocs": metric(micro["wal.append"]["allocs_op"], "1/op"),
        "reduce.cpu_share": metric(share["reduce"], "frac"),
        "reduce.xable_us": metric(micro["reduce.xable"]["ns_op"] / 1e3, "us"),
        "reduce.xable_allocs": metric(micro["reduce.xable"]["allocs_op"], "1/op"),
        "verify.check_ms_p50": metric(pct(check_ms, 50), "ms"),
        "verify.check_ms_p99": metric(pct(check_ms, 99), "ms"),
        "verify.events_per_seed": metric(sum(r["events"] for r in runs) / n, "1/seed"),
        "scenario.cpu_share": metric(share["scenario"], "frac"),
        "runtime.gc_share": metric(share["runtime.gc"], "frac"),
        "runtime.sched_share": metric(share["runtime.sched"], "frac"),
        "runtime.other_share": metric(share["runtime.other"], "frac"),
        "runtime.alloc_share": metric(share["runtime.alloc"], "frac"),
        "trace.overhead_frac": metric(1 - traced_rate / untraced_rate, "frac"),
    }


LAYERS = ("setup", "vclock", "simnet", "fd", "consensus", "core", "wal", "reduce",
          "scenario", "runtime.gc", "runtime.sched", "runtime.other")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True, help="seed family: the run sweeps seeds seed*%d+1, ..." % SEED_STRIDE)
    ap.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    ap.add_argument("--holdout", action="store_true",
                    help="use the held-out seed range, to confirm a claim on seeds not used while writing it")
    args = ap.parse_args()

    base = (args.seed % (1 << 32)) * SEED_STRIDE + 1
    if args.holdout:
        base += HOLDOUT_OFFSET
    try:
        build()
        res = Result()
        info = {"workload": args.workload, "xsim": WORKLOADS[args.workload][0], "seed_base": base,
                "holdout": args.holdout, "commit": source_id(), "trace": args.trace}
        if args.trace:
            metrics = per_layer(args.workload, base, args.seconds, res, info)
        else:
            metrics = end_to_end(args.workload, base, args.seconds, res, info)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)

    info.update(attempted=res.attempted, failed=res.failed, failed_frac=ratio(res.failed, res.attempted),
                failing_seeds=sorted(res.failing, key=lambda s: (isinstance(s, str), s)), crashed=res.crashed, problems=res.problems[:20])
    print(json.dumps({"info": info}, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": res.correct, "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
