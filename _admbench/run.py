#!/usr/bin/env python3
"""Admission-service benchmark.

    python3 _admbench/run.py --workload large-shop --seed 1 --seconds 10 --trace 0

Run from the repository root.  Builds e2e-serve, e2e-dispatch and the
benchmark's own load process from source, starts the serving processes with
pinned flags, drives one workload at them from a single load process and
checks every reply against the sequential reference interpreter.

--trace 0 measures the end-to-end metrics; --trace 1 runs the traced
per-layer breakdown instead.  Every metric is printed by name with its unit
and sample count; the last line of standard output is one JSON object with
the declared metrics (see README.md and ../BENCHMARK.json).
"""

import argparse
import hashlib
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(BENCH, "out")
SERVE = os.path.join("_build", "default", "bin", "serve.exe")
DISPATCH = os.path.join("_build", "default", "bin", "dispatch.exe")
LOAD = os.path.join(BENCH, "_build", "default", "admbench.exe")

# Pinned serving configuration per workload; -j never exceeds the 2 cores
# of the reference host, and each accept pool has three reader domains:
# the two load connections (or one upstream lane and a health probe) plus
# the traced run's probe.  slo_ms is the workload's fixed latency limit.
WORKLOADS = {
    "large-shop": {"topology": "direct", "serve": ["-j", "1", "--accept-pool", "3"], "slo_ms": 100.0},
    "resubmit": {
        "topology": "dispatch",
        "serve": ["-j", "1", "--cache", "64", "--accept-pool", "3"],
        "slo_ms": 50.0,
    },
}
DISPATCH_FLAGS = ["--upstream-conns", "1", "--accept-pool", "3"]
# A run sets up SETUP_REPEATS times; the last MEASURED_REPS set-ups are
# each measured for an equal share of --seconds, and the KEPT_REPS of them
# the hypervisor stole least CPU time from are reported.
SETUP_REPEATS = 10
MEASURED_REPS = 6
KEPT_REPS = 3
# The traced run's probed phase is at most PROBED_SECONDS long, so that it,
# its in-process reply check, the hop pair and the replay end well inside
# the three minutes a run may take on a slow host.
PROBED_SECONDS = 20.0
HOP_SECONDS = 3.0
LAYER_SECONDS = 6.0

E2E = [
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("slo_met_frac", "frac"),
    ("setup_s", "s"),
    ("server_rss_mb", "MB"),
]
# Printed with the end-to-end metrics but not declared: the failure and
# undecided shares are 0 on a healthy run, which a regression bound cannot
# be a share of; the pooled figures treat the reps as one run.
E2E_REPORT_ONLY = [
    ("failed_frac", "frac"),
    ("undecided_frac", "frac"),
    ("throughput_rps.pooled", "1/s"),
    ("latency_p99_ms.pooled", "ms"),
]

ALGOS = ["eedf", "algo_a", "algo_h", "portfolio", "cache"]
PER_LAYER = [
    ("protocol.parse_us.p50", "us"),
    ("protocol.render_us.p50", "us"),
    ("protocol.render_us.p99", "us"),
    ("protocol.reply_bytes.mean", "bytes"),
    ("batcher.queue_wait_ms.p50", "ms"),
    ("batcher.queue_wait_ms.p99", "ms"),
    ("batcher.batch_size.mean", "count"),
    ("batcher.step_ms.p50", "ms"),
    ("batcher.step_ms.p99", "ms"),
    ("batcher.steps", "count"),
    ("cache.canonicalize_us.p50", "us"),
    ("cache.lookups", "count"),
    ("cache.hit_rate", "frac"),
    ("keyer.reuse_rate", "frac"),
    ("admission.prepare_us.p50", "us"),
    ("admission.inc_us.p50", "us"),
    ("admission.inc_hit_rate", "frac"),
    ("admission.solve_us.p50", "us"),
    ("admission.solve_us.p99", "us"),
    ("admission.verify_us.p50", "us"),
    ("admission.commit_us.p50", "us"),
] + [("core.solves." + a, "count") for a in ALGOS] + [
    ("core.solve_us.cache.p50", "us"),
    ("server.ping_rtt_ms.p50", "ms"),
    ("server.ping_rtt_ms.p99", "ms"),
    ("server.read_errors", "count"),
    ("dispatcher.hop_ms.p50", "ms"),
    ("dispatcher.routed", "count"),
    ("dispatcher.unavailable", "count"),
    ("dispatcher.shard_pending.max", "count"),
    ("registry.balance_max_share", "frac"),
    ("bench.trace_overhead_frac", "frac"),
]
# Printed with the per-layer metrics but not declared: a workload whose
# stream never reaches an algorithm has no samples for it.
PER_LAYER_REPORT_ONLY = [("core.solve_us.%s.p50" % a, "us") for a in ALGOS if a != "cache"]


class BenchError(Exception):
    pass


# --------------------------------------------------------------------------
# Statistics


def percentile(values, q):
    """Linear interpolation between closest ranks; 0 when empty (the
    sample count printed beside it says so)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported(n, q):
    """The sample-count rule: a percentile is reported only when at least
    ten samples lie beyond it."""
    return n * (1.0 - q) >= 10


def ratio(num, den):
    return num / den if den else 0.0


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover (children may overlap each other)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def calmest(items, key, k):
    """The k items with the least host CPU steal under key (ties keep
    their order)."""
    return sorted(items, key=lambda it: it[key])[:k]


def e2e_metrics(reps, slo_ms, setups, kept=KEPT_REPS):
    """End-to-end metrics of one run: name -> (value, unit, n).  Each rep is
    a measured phase on its own set-up.  Throughput, the latency
    percentiles and peak RSS are each rep's figure over its whole phase;
    the run reports their median over the kept reps, those the hypervisor
    stole least CPU time from, so reps on a host busy with other machines
    do not move the run.  setup_s is likewise the median over the calmer
    half of the set-ups.  Shares count every request of every rep.  A
    percentile's n is the smallest kept rep's sample count."""
    calm = calmest(reps, "steal", kept)

    def med(f):
        return statistics.median(f(r) for r in calm)

    lat = [x for r in reps for x in r["latency_ms"]]
    n_rep = min(len(r["latency_ms"]) for r in calm)
    setup = [s["setup_s"] for s in calmest(setups, "setup_steal", (len(setups) + 1) // 2)]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    decisions = sum(r["decisions"] for r in reps)
    return {
        "throughput_rps": (med(lambda r: ratio(r["attempted"] - r["failed"], r["measured_s"])), "1/s",
                           attempted - failed),
        "latency_p50_ms": (med(lambda r: percentile(r["latency_ms"], 0.50)), "ms", n_rep),
        "latency_p99_ms": (med(lambda r: percentile(r["latency_ms"], 0.99)), "ms", n_rep),
        "slo_met_frac": (ratio(sum(1 for x in lat if x <= slo_ms), attempted), "frac", attempted),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "server_rss_mb": (med(lambda r: r["rss_mb"]), "MB", len(calm)),
        "failed_frac": (ratio(failed, attempted), "frac", attempted),
        "undecided_frac": (ratio(sum(r["undecided"] for r in reps), decisions), "frac", decisions),
        "throughput_rps.pooled": (ratio(attempted - failed, sum(r["measured_s"] for r in reps)), "1/s",
                                  attempted - failed),
        "latency_p99_ms.pooled": (percentile(lat, 0.99), "ms", len(lat)),
    }


def layer_metrics(main, hop_dispatch, hop_direct, layers, spans):
    """Per-layer metrics of one traced run: name -> (value, unit, n)."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durs(name, scale, tag=None):
        return [(s["end"] - s["start"]) * scale for s in by_name.get(name, [])
                if tag is None or s["tag"] == tag]

    def pct(name, q, scale, unit, tag=None):
        xs = durs(name, scale, tag)
        return (percentile(xs, q), unit, len(xs))

    us, ms = 1e6, 1e3
    lookups = len(by_name.get("cache.lookup", []))
    hits = len(durs("cache.lookup", us, "hit"))
    m = {
        "protocol.parse_us.p50": pct("protocol.parse", 0.5, us, "us"),
        "protocol.render_us.p50": pct("protocol.render", 0.5, us, "us"),
        "protocol.render_us.p99": pct("protocol.render", 0.99, us, "us"),
        "protocol.reply_bytes.mean": (ratio(layers["reply_bytes"], layers["replies"]), "bytes", layers["replies"]),
        "batcher.queue_wait_ms.p50": pct("batcher.queue", 0.5, ms, "ms"),
        "batcher.queue_wait_ms.p99": pct("batcher.queue", 0.99, ms, "ms"),
        "batcher.batch_size.mean": (ratio(layers["replies"], layers["steps"]), "count", layers["steps"]),
        "batcher.step_ms.p50": pct("batcher.step", 0.5, ms, "ms"),
        "batcher.step_ms.p99": pct("batcher.step", 0.99, ms, "ms"),
        "batcher.steps": (layers["steps"], "count", 1),
        "cache.canonicalize_us.p50": pct("cache.canonicalize", 0.5, us, "us"),
        "cache.lookups": (lookups, "count", 1),
        "cache.hit_rate": (ratio(hits, lookups), "frac", lookups),
        "keyer.reuse_rate": (
            ratio(layers["keyer_reused"], layers["keyer_reused"] + layers["keyer_rendered"]), "frac",
            layers["keyer_reused"] + layers["keyer_rendered"]),
        "admission.prepare_us.p50": pct("admission.prepare", 0.5, us, "us"),
        "admission.inc_us.p50": pct("admission.inc", 0.5, us, "us"),
        "admission.inc_hit_rate": (ratio(layers["inc_hits"], layers["adds"]), "frac", layers["adds"]),
        "admission.solve_us.p50": pct("admission.solve", 0.5, us, "us"),
        "admission.solve_us.p99": pct("admission.solve", 0.99, us, "us"),
        "admission.verify_us.p50": pct("admission.verify", 0.5, us, "us"),
        "admission.commit_us.p50": pct("admission.commit", 0.5, us, "us"),
    }
    for a in ALGOS:
        name, tag = ("cache.lookup", "hit") if a == "cache" else ("admission.solve", a)
        m["core.solves." + a] = (len(durs(name, us, tag)), "count", 1)
        m["core.solve_us.%s.p50" % a] = pct(name, 0.5, us, "us", tag)
    rtt = main["ping_rtt_ms"]
    d = hop_dispatch["dispatcher"]
    via, direct = hop_dispatch["latency_ms"], hop_direct["latency_ms"]
    m.update({
        "server.ping_rtt_ms.p50": (percentile(rtt, 0.5), "ms", len(rtt)),
        "server.ping_rtt_ms.p99": (percentile(rtt, 0.99), "ms", len(rtt)),
        "server.read_errors": (main["read_errors"], "count", 1),
        "dispatcher.hop_ms.p50": (percentile(via, 0.5) - percentile(direct, 0.5), "ms", min(len(via), len(direct))),
        "dispatcher.routed": (d["routed"], "count", 1),
        "dispatcher.unavailable": (d["unavailable"], "count", 1),
        "dispatcher.shard_pending.max": (d["shard_pending_max"], "count", 1),
        "registry.balance_max_share": (d["balance_max_share"], "frac", d["routed"]),
        "bench.trace_overhead_frac": (1.0 - ratio(layers["untraced_s"], layers["traced_s"]), "frac", layers["requests"]),
    })
    return m


def self_time_table(spans):
    """Per span name: (count, p50 duration us, p50 self time us)."""
    selfs = self_times(spans)
    groups = {}
    for s in spans:
        groups.setdefault(s["name"], []).append(s)
    return {
        name: (len(ss), percentile([(s["end"] - s["start"]) * 1e6 for s in ss], 0.5),
               percentile([selfs[s["id"]] * 1e6 for s in ss], 0.5))
        for name, ss in sorted(groups.items())
    }


# --------------------------------------------------------------------------
# Processes


def run_quiet(cmd, env=None, timeout=900):
    """Run a build step with its output on stderr."""
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=timeout)
    if r.returncode != 0:
        raise BenchError("%s failed with exit code %d" % (" ".join(cmd), r.returncode))


def build():
    for path in ("dune-project", "lib", "bin"):
        if not os.path.exists(path):
            raise BenchError("run from the repository root: %s is missing" % path)
    env = dict(os.environ, DUNE_CACHE="disabled")
    run_quiet(["dune", "build", "--root", ".", "@install"], env)
    install = os.path.abspath(os.path.join("_build", "install", "default", "lib"))
    env["OCAMLPATH"] = os.pathsep.join(p for p in (install, os.environ.get("OCAMLPATH")) if p)
    run_quiet(["dune", "build", "--root", BENCH, "./admbench.exe"], env)


def server_env():
    env = dict(os.environ)
    env.pop("E2E_JOBS", None)  # -j is pinned on the command line
    return env


class Topology:
    """Serving processes for one measurement.  kind: "direct" (one
    e2e-serve), "dispatch" (e2e-dispatch in front of two e2e-serve shards)
    or "sharded" (the two shards alone).  ready_s is launch-to-ready."""

    def __init__(self, kind, serve_flags, tag):
        self.procs = []
        self.tag = tag
        t0 = time.perf_counter()
        try:
            n = 1 if kind == "direct" else 2
            shards = [self._spawn([SERVE, "--tcp", "0"] + serve_flags, "serve%d" % i) for i in range(n)]
            self.shards = [self._wait(p, log) for p, log in shards]
            self.entry = self.shards[0]
            if kind == "dispatch":
                ids = ",".join("127.0.0.1:%d" % p for p in self.shards)
                self.entry = self._wait(*self._spawn([DISPATCH, "--port", "0", "--shards", ids] + DISPATCH_FLAGS, "dispatch"))
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _spawn(self, cmd, name):
        log = os.path.join(OUT, "%s.%s.err" % (self.tag, name))
        with open(log, "w") as err:
            p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                                 env=server_env())
        self.procs.append(p)
        return p, log

    @staticmethod
    def _wait(p, log, timeout=30.0):
        deadline = time.monotonic() + timeout
        while True:
            with open(log) as f:
                m = re.search(r"listening on [0-9.]+:([0-9]+)", f.read())
            if m:
                return int(m.group(1))
            if p.poll() is not None:
                raise BenchError("%s exited with %s before listening" % (p.args[0], p.returncode))
            if time.monotonic() > deadline:
                raise BenchError("%s did not start listening" % p.args[0])
            time.sleep(0.0005)

    def rss_mb(self):
        total = 0.0
        for p in self.procs:
            with open("/proc/%d/status" % p.pid) as f:
                m = re.search(r"VmHWM:\s+([0-9]+) kB", f.read())
            total += int(m.group(1)) / 1024.0
        return total

    def stop(self):
        for p in self.procs:
            if p.poll() is None:
                p.terminate()
        for p in self.procs:
            try:
                p.wait(timeout=10)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()


def addr(port):
    return "127.0.0.1:%d" % port


def load(workload, seed, seconds, target, tag, extra=()):
    out = os.path.join(OUT, "%s.load.json" % tag)
    cmd = [LOAD, "load", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out", out] + list(target) + list(extra)
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=seconds + 150)
    if r.returncode != 0:
        raise BenchError("load process failed with exit code %d" % r.returncode)
    with open(out) as f:
        return json.load(f)


# --------------------------------------------------------------------------
# Runs


def flag_value(flags, name, default):
    return int(flags[flags.index(name) + 1]) if name in flags else default


def cpu_ticks():
    """(steal, total) clock ticks of the machine, from /proc/stat: steal is
    time the hypervisor ran something else on this machine's CPUs."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    return v[7], sum(v)


def steal_between(t0, t1):
    return ratio(t1[0] - t0[0], t1[1] - t0[1])


def check_logs(workload, seed, logs, tag):
    """Check reply logs of runs on one seeded stream with one reference
    replay; per log, {checked, mismatches, first_mismatch}."""
    out = os.path.join(OUT, tag + ".check.json")
    cmd = [LOAD, "check", "--workload", workload, "--seed", str(seed), "--logs", ",".join(logs), "--out", out]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=170)
    if r.returncode != 0:
        raise BenchError("reply check failed with exit code %d" % r.returncode)
    with open(out) as f:
        return json.load(f)


def measure(workload, seed, seconds, tag):
    """Set up SETUP_REPEATS times and measure the last MEASURED_REPS
    set-ups for seconds / MEASURED_REPS each, every rep on the same seeded
    stream; then check every set-up's replies at once.  Returns (every
    set-up's load result, each with its set-up time, the steal share
    during set-up and, when measured, during the measured phase, its
    serving processes' peak RSS and its check; failed or wrong seed
    replies over the unmeasured set-ups)."""
    wl = WORKLOADS[workload]
    results, logs = [], []
    for rep in range(SETUP_REPEATS):
        measured = rep >= SETUP_REPEATS - MEASURED_REPS
        rtag = "%s.%d" % (tag, rep)
        logs.append(os.path.join(OUT, rtag + ".replies"))
        launched = cpu_ticks()
        with Topology(wl["topology"], wl["serve"], rtag) as topo:
            res = load(workload, seed, seconds / MEASURED_REPS, ["--addr", addr(topo.entry)], rtag,
                       ["--log", logs[-1]] + ([] if measured else ["--seed-only"]))
            res["setup_s"] = topo.ready_s + res["seed_s"]
            res["setup_steal"] = steal_between(launched, res["ticks_seeded"])
            if measured:
                res["steal"] = steal_between(res["ticks_seeded"], res["ticks_measured"])
                res["rss_mb"] = topo.rss_mb()
            results.append(res)
    for res, check in zip(results, check_logs(workload, seed, logs, tag)):
        res.update(check)
    unmeasured = results[:SETUP_REPEATS - MEASURED_REPS]
    return results, sum(r["seed_failed"] + r["mismatches"] for r in unmeasured)


def traced(workload, seed, seconds, tag):
    wl = WORKLOADS[workload]
    with Topology(wl["topology"], wl["serve"], tag + ".main") as topo:
        main = load(workload, seed, min(seconds, PROBED_SECONDS), ["--addr", addr(topo.entry)], tag + ".main",
                    ["--ping", addr(topo.shards[0])])
        shards = ",".join(addr(p) for p in topo.shards)
    # The dispatcher hop: the same stream through e2e-dispatch and straight
    # to the same two shards, routed the way the dispatcher would.
    with Topology("dispatch", wl["serve"], tag + ".hop") as topo:
        via = load(workload, seed, HOP_SECONDS, ["--addr", addr(topo.entry)], tag + ".hop",
                   ["--dispatcher", addr(topo.entry)])
    with Topology("sharded", wl["serve"], tag + ".direct") as topo:
        direct = load(workload, seed, HOP_SECONDS, ["--shards", ",".join(addr(p) for p in topo.shards)],
                      tag + ".direct")
    spans_path = os.path.join(OUT, tag + ".spans.jsonl")
    layers_path = os.path.join(OUT, tag + ".layers.json")
    cmd = [LOAD, "layers", "--workload", workload, "--seed", str(seed), "--seconds", str(LAYER_SECONDS),
           "--cache", str(flag_value(wl["serve"], "--cache", 4096)),
           "--jobs", str(flag_value(wl["serve"], "-j", 1)), "--shards", shards,
           "--spans", spans_path, "--out", layers_path]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=170)
    if r.returncode != 0:
        raise BenchError("layers replay failed with exit code %d" % r.returncode)
    with open(layers_path) as f:
        layers = json.load(f)
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    return main, via, direct, layers, spans


def source_digest():
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def stamp(workload, seed):
    def out(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    wl = WORKLOADS[workload]
    return {
        "workload": workload,
        "seed": seed,
        "commit": out(["git", "rev-parse", "--short", "HEAD"]) if os.path.isdir(".git") else "none",
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "ocaml": out(["ocamlfind", "ocamlopt", "-version"]),
        "topology": wl["topology"],
        "serve_flags": " ".join(["--tcp", "0"] + wl["serve"]),
        "dispatch_flags": " ".join(DISPATCH_FLAGS) if wl["topology"] == "dispatch" else "-",
        "slo_ms": wl["slo_ms"],
    }


def print_metric(name, value, unit, n, q=None):
    note = "" if q is None or supported(n, q) else "  [below the sample-count rule]"
    print("metric %-28s %14.6g %-6s n=%d%s" % (name, value, unit, n, note))


def quantile_of(name):
    m = re.search(r"(?:^|[._])p([0-9]+)(?:$|[._])", name)
    return int(m.group(1)) / 100.0 if m else None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind like an exception so every started process is
    # stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        build()
        os.makedirs(OUT, exist_ok=True)
        tag = "%s.%d.%d" % (args.workload, args.seed, os.getpid())
        for k, v in stamp(args.workload, args.seed).items():
            print("stamp  %-14s %s" % (k, v))
        if args.trace:
            main_run, via, direct, layers, spans = traced(args.workload, args.seed, args.seconds, tag)
            metrics = layer_metrics(main_run, via, direct, layers, spans)
            declared, extra = PER_LAYER, PER_LAYER_REPORT_ONLY
            runs = [("main", main_run), ("hop-dispatch", via), ("hop-direct", direct)]
            for name, (count, p50, self_p50) in self_time_table(spans).items():
                print("span   %-22s n=%-7d p50=%10.2fus  self p50=%10.2fus" % (name, count, p50, self_p50))
            correct_extra = layers["replays_agree"]
            if not correct_extra:
                print("error  traced and untraced admission replays disagree")
        else:
            setups, setup_bad = measure(args.workload, args.seed, args.seconds, tag)
            reps = setups[SETUP_REPEATS - MEASURED_REPS:]
            metrics = e2e_metrics(reps, WORKLOADS[args.workload]["slo_ms"], setups)
            declared, extra = E2E, E2E_REPORT_ONLY
            runs = [("rep%d" % i, r) for i, r in enumerate(reps)]
            print("setup  runs=%d measured=%d kept=%d unmeasured_bad_seed_replies=%d"
                  % (len(setups), len(reps), KEPT_REPS, setup_bad))
            print("host   steal share per rep (CPU time the hypervisor gave elsewhere): %s"
                  % " ".join("%.4f" % r["steal"] for r in reps))
            correct_extra = setup_bad == 0
        for name, r in runs:
            print("run    %-12s attempted=%d succeeded=%d failed=%d %s checked=%d mismatches=%d seed_requests=%d"
                  % (name, r["attempted"], r["attempted"] - r["failed"], r["failed"],
                     " ".join("%s=%d" % kv for kv in r["failed_by_cause"].items()),
                     r["checked"], r["mismatches"], r["seed_requests"]))
            if r["first_mismatch"]:
                print("error  %s: %s" % (name, r["first_mismatch"]))
        for name, unit in declared + extra:
            value, _, n = metrics[name]
            print_metric(name, value, unit, n, quantile_of(name))
        correct = correct_extra and all(r["mismatches"] == 0 and r["seed_failed"] == 0 for _, r in runs)
        if correct:
            # The run's scratch files are kept only when it went wrong.
            for f in os.listdir(OUT):
                if f.startswith(tag + "."):
                    os.remove(os.path.join(OUT, f))
        result = {
            "correct": correct,
            "attempted": sum(r["attempted"] for _, r in runs),
            "failed": sum(r["failed"] for _, r in runs),
            "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared},
        }
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
