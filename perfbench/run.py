#!/usr/bin/env python3
"""The repo's benchmark: four workloads through the user-facing commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --describe     # workload flags and metric table

Run from the root of a source tree. It builds wanpoisson and the
in-process helper perfbench/pb.exe with dune, runs the workload for about S seconds, checks every output against
an in-process reference computed from the public entry points for the
same seed, and prints the metrics. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones, from
span-traced replays of every workload's work (perfbench/pb.ml), each
workload's unaccounted share and the tracing overhead.

Sized for a 2-core host: at most two worker processes or domains, plus
this one generator process with no extra threads.

The paper registry (bench/main.exe --jobs 2) is not an end-to-end
workload: one pass takes 20-35 s on a 2-core host and checking it against
an in-process reference doubles that, which the time budget of a full set
of runs does not allow, and a single pass does not give a steady median.
Its layers are still measured in every traced run.
"""

import argparse
import fcntl
import json
import os
import random
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pbstats  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
WANPOISSON = os.path.join(ROOT, "_build/default/bin/wanpoisson.exe")
PB = os.path.join(ROOT, "_build/default/perfbench/pb.exe")
SOURCES = ["dune-project", "bin/wanpoisson.ml", "lib", "perfbench/pb.ml"]

# ---------------------------------------------------------------- workloads

POISSON = {"events": 1e7, "rate": 1000, "bin": 0.01, "setup_events": 65536}
NETSIM = {"events": 1e7, "replicas": 8, "sources": 1000, "beta": 1.5,
          "discipline": "red", "topology": "tandem:2", "buffer": 64,
          "load": 0.8, "workers": 2}
# About 10 events per 1 ms bin; the paced run offers 200k events/s, well
# below the ~650k/s the unpaced run ingests on the reference host.
SERVE = {"events": 1_000_000, "event_rate": 10000.0, "bin": 0.001,
         "window": 256, "cadence": 16, "paced_rate": 200000.0}
REGISTRY_JOBS = 2
# Set-up rounds measured after each timed pass, so the set-up median
# spans the whole run rather than one burst at its start.
SETUP_PER_PASS = 3

WORKLOADS = {
    "poisson-lrd": {
        "why": "one-pass LRD analysis of 1e7 Poisson events (10/bin): RNG, gap "
               "transform and binning dominate; farm adds frame codec, merge and "
               "2-core scaling",
        "commands": [
            "wanpoisson stream --jobs 1 --rate 1000 --bin 0.01 --events 1e7 --seed N",
            "wanpoisson farm --workers 2 --rate 1000 --bin 0.01 --events 1e7 --seed N",
        ],
        "setup": "the same two commands at --events 65536 (one chunk)",
    },
    "onoff-netsim": {
        "why": "1000 Pareto ON/OFF sources superposed into a RED tandem:2 queue "
               "network, 8 replicas on 2 workers: superposition heap and per-packet "
               "queue path",
        "commands": [
            "wanpoisson netsim --model onoff --sources 1000 --beta 1.5 --discipline red "
            "--topology tandem:2 --buffer 64 --load 0.8 --replicas 8 --workers 2 "
            "--events 1e7 --seed N",
        ],
        "setup": "the same command at --replicas 1 --events 2000 (one replica)",
    },
    "serve-stdin": {
        "why": "1e6 event lines piped into serve (bin 1 ms, window 256, cadence 16), "
               "unpaced and then open loop at 200000 events/s: parse, window "
               "merges and estimate lag",
        "commands": [
            "wanpoisson serve --source stdin --bin 0.001 --window 256 --cadence 16 "
            "< 1e6 Poisson(10000/s) event times from seed N, unpaced",
            "the same, paced open loop at 200000 events/s",
        ],
        "setup": "the same command on one window (2560 events)",
    },
}

# What each end-to-end metric reads on each workload, under the
# per-workload names the human-readable lines print.
END_TO_END = {
    "setup_s": ("s", "lower",
                "median wall of the workload's commands at their smallest valid "
                "size, over set-up rounds spread through the run"),
    "throughput_per_s": ("1/s", "higher",
                         "work per wall second of the workload's first command, "
                         "median over passes: poisson-lrd: stream_events_per_s; "
                         "onoff-netsim: netsim_packets_per_s; serve-stdin: "
                         "serve_events_per_s (unpaced)"),
    "wait_p50_ms": ("ms", "lower",
                    "median time a user waits for a result: the farm report "
                    "(poisson-lrd) and the netsim report over passes; each serve "
                    "estimate behind the due time of its last event in the paced "
                    "run (serve_lag_p50_ms)"),
    "wait_tail_ms": ("ms", "lower",
                     "serve-stdin: the highest of p99/p90/p50 of the estimate lags "
                     "with >= 10 samples beyond it (serve_lag_p99_ms with >= 1000 "
                     "estimates); a batch command gives one wait per pass, whose "
                     "spread is the host's, so elsewhere it equals wait_p50_ms"),
    "peak_rss_mb": ("MB", "lower", "largest RSS of any process of the timed commands"),
}

# name: (unit, better, end-to-end metric and workload it should move, predicted flat on)
PER_LAYER = {
    "prng.draw_ns": ("ns", "lower", "throughput_per_s and wait on poisson-lrd", "serve-stdin"),
    "traffic.poisson_gen_ns_per_event": ("ns", "lower", "poisson-lrd throughputs", "onoff-netsim, serve-stdin"),
    "timeseries.bin_ns_per_event": ("ns", "lower", "poisson-lrd throughputs", "onoff-netsim"),
    "timeseries.pyramid_ns_per_bin": ("ns", "lower", "poisson-lrd throughputs", "onoff-netsim"),
    "lrd.rs_ns_per_bin": ("ns", "lower", "throughput_per_s (stream) on poisson-lrd only", "farm wait on poisson-lrd"),
    "stats.sketch_add_ns_per_bin": ("ns", "lower", "poisson-lrd throughputs", "onoff-netsim"),
    "lrd.readout_ms": ("ms", "lower", "none", "all"),
    "engine.frame_us_per_shard": ("us", "lower", "wait_p50_ms (farm) on poisson-lrd", "throughput_per_s (stream) on poisson-lrd"),
    "engine.frame_bytes_per_shard": ("bytes", "lower", "wait_p50_ms (farm) on poisson-lrd", "throughput_per_s (stream) on poisson-lrd"),
    "timeseries.snapshot_merge_us_per_shard": ("us", "lower", "wait_p50_ms (farm) on poisson-lrd", "throughput_per_s (stream) on poisson-lrd"),
    "traffic.superpose_ns_per_arrival": ("ns", "lower", "throughput_per_s on onoff-netsim", "poisson-lrd"),
    "queueing.network_ns_per_packet": ("ns", "lower", "throughput_per_s on onoff-netsim", "poisson-lrd, serve-stdin"),
    "queueing.drop_share": ("share", "lower", "none: a pure speed-up leaves it bit-equal", "all"),
    "core.window_us_per_estimate": ("us", "lower", "throughput_per_s and wait_* on serve-stdin", "poisson-lrd"),
    "core.window_ns_per_bin": ("ns", "lower", "throughput_per_s and wait_* on serve-stdin", "poisson-lrd"),
    "stats.ia_sketch_ns_per_event": ("ns", "lower", "throughput_per_s on serve-stdin", "onoff-netsim"),
    "core.serve_ingest_ns_per_event": ("ns", "lower", "throughput_per_s on serve-stdin (derived: serve run minus window and ia sketch)", "poisson-lrd"),
    "serve.gen_late_p99_ms": ("ms", "lower", "must stay near 0, or serve-stdin waits are not trusted", "n/a"),
    # The registry is no workload (see the module docstring): these move
    # the wall of bench/main.exe --jobs 2 and nothing measured end to end.
    "lrd.pareto_count_ns_per_arrival": ("ns", "lower", "registry wall (fig15 is its critical path)", "all"),
    "registry.critical_path_s": ("s", "lower", "registry wall", "all"),
    "registry.work_s": ("s", "lower", "registry wall", "all"),
    "registry.parallel_efficiency": ("share", "higher", "registry wall", "all"),
    "unaccounted_share": ("share", "lower", "the gap between this workload's untraced wall and its layer spans", "n/a"),
    "trace_overhead_share": ("share", "lower", "none: the traced replay against its untraced twin", "n/a"),
    "poisson.events": ("count", "higher", "", ""),
    "poisson.bins": ("count", "higher", "", ""),
    "farm.shards": ("count", "higher", "", ""),
    "netsim.replicas": ("count", "higher", "", ""),
    "netsim.packets": ("count", "higher", "", ""),
    "serve.events": ("count", "higher", "", ""),
    "serve.estimates": ("count", "higher", "", ""),
    "registry.experiments": ("count", "higher", "", ""),
}


def describe():
    return {
        "host": {"nproc": os.cpu_count(), "max_workers": 2},
        "workloads": WORKLOADS,
        "end_to_end": {k: {"unit": u, "better": b, "reads": r}
                       for k, (u, b, r) in END_TO_END.items()},
        "per_layer": {k: {"unit": u, "better": b, "should_move": m, "predicted_flat_on": f}
                      for k, (u, b, m, f) in PER_LAYER.items()},
    }


# ---------------------------------------------------------------- running


class Tally:
    """Operations attempted and failed (commands and estimate records),
    with the reason of each failure for stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, ok, what, n=1):
        self.attempted += n
        if not ok:
            self.failed += n
            self.reasons.append(what)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def launched(argv):
    """argv run under pb's launcher; returns (launcher argv, result file)."""
    result = os.path.join(WORK, "exec.json")
    if os.path.exists(result):
        os.remove(result)
    return [PB, "exec", result] + argv, result


def launch_result(result, argv, err_path):
    with open(result) as f:
        r = json.load(f)
    if r["rc"] != 0:
        with open(err_path, "rb") as f:
            log("command failed (%d): %s\n%s" % (r["rc"], " ".join(argv),
                                                   f.read()[-2000:].decode(errors="replace")))
    return r["rc"], r["wall_s"], r["maxrss_kb"]


def run_cmd(argv, stdin_path=None):
    """Run argv to completion under the launcher. Returns (rc, stdout
    bytes, wall s, peak RSS kB of the command and the children it reaped)."""
    out_path = os.path.join(WORK, "cmd.out")
    err_path = os.path.join(WORK, "cmd.err")
    cmd, result = launched(argv)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
        subprocess.run(cmd, stdin=stdin, stdout=out, stderr=err, cwd=ROOT)
        if stdin_path:
            stdin.close()
    with open(out_path, "rb") as f:
        data = f.read()
    rc, wall, kb = launch_result(result, argv, err_path)
    return rc, data, wall, kb


def pb(mode, what, stdin_path=None, **kv):
    argv = [PB, mode, what] + ["%s=%s" % (k, v) for k, v in kv.items()]
    stdin = open(stdin_path, "rb") if stdin_path else subprocess.DEVNULL
    r = subprocess.run(argv, stdin=stdin, capture_output=True, cwd=ROOT)
    if stdin_path:
        stdin.close()
    if r.returncode != 0:
        raise RuntimeError("pb %s %s failed: %s" % (mode, what, r.stderr.decode()[-2000:]))
    return json.loads(r.stdout)


def build():
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        log("perfbench: not a source tree of this repo (missing %s)" % ", ".join(missing))
        sys.exit(2)
    if shutil.which("dune") is None:
        log("perfbench: dune not found on PATH")
        sys.exit(2)
    os.makedirs(WORK, exist_ok=True)
    # No shared dune cache: the build reads and writes inside the tree only.
    r = subprocess.run(["dune", "build", "--root", ROOT, "--cache=disabled", "--display", "quiet",
                        "bin/wanpoisson.exe", "perfbench/pb.exe"],
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        log("perfbench: build failed\n" + r.stdout + r.stderr)
        sys.exit(1)


def setup_round(commands, tally, ctx):
    """A function that runs the smallest-size commands once and returns
    their summed wall; None in a traced run, which reports no end-to-end
    metric and so measures no set-up."""
    if ctx["traced"]:
        return None

    def one_round():
        total = 0.0
        for argv, stdin_path in commands:
            rc, _, wall, _ = run_cmd(argv, stdin_path)
            tally.op(rc == 0, "setup command " + " ".join(argv))
            total += wall
        return total
    return one_round


def passes(budget_s, min_passes, one_pass, setup=None):
    """One unmeasured warm-up pass and set-up round, then one_pass, each
    followed by SETUP_PER_PASS set-up rounds, until budget_s has elapsed
    and at least min_passes ran. A pass returns the (name, rc, stdout,
    wall s, RSS kB) of each command it ran. Returns every command run
    (all are checked), the measured passes and the median set-up wall
    (nan without set-up)."""
    warm = one_pass()
    if setup:
        setup()
    measured, setups = [], []
    t0 = time.perf_counter()
    while len(measured) < min_passes or time.perf_counter() - t0 < budget_s:
        measured.append(one_pass())
        if setup:
            setups.extend(setup() for _ in range(SETUP_PER_PASS))
    setup_s = statistics.median(setups) if setups else float("nan")
    for name in sorted({c[0] for p in measured for c in p}):
        log("pass walls %s: %s" % (name, " ".join("%.4f" % w for w in walls(measured, name))))
    return warm + [c for p in measured for c in p], measured, setup_s


def walls(measured, name):
    return [w for p in measured for n, _, _, w, _ in p if n == name]


def peak_rss_mb(measured):
    """Median over passes of the largest RSS of any process in the pass."""
    return statistics.median([max(kb for *_, kb in p) for p in measured]) / 1024.0


def wait_metrics(waits_ms):
    tail = pbstats.tail_percentile(len(waits_ms))
    p50 = statistics.median(waits_ms)
    return (p50, p50 if tail == 50 else pbstats.percentile(waits_ms, tail), tail)


def field(text, pattern):
    m = re.search(pattern, text, re.M)
    return float(m.group(1)) if m else float("nan")


# ---------------------------------------------------------------- poisson-lrd


def poisson_argv(cmd, seed, events):
    extra = ["--jobs", "1"] if cmd == "stream" else ["--workers", "2"]
    return [WANPOISSON, cmd] + extra + ["--rate", str(POISSON["rate"]), "--bin",
                                        str(POISSON["bin"]), "--events", "%g" % events,
                                        "--seed", str(seed)]


def poisson_domain_ok(text, tally, what):
    """H(var-time) and H(wavelet) within 0.5 +- 0.05, and the event total
    within 5 sigma of the expected count."""
    expected = POISSON["events"]
    h_vt = field(text, r"H\(var-time\)\s+([-0-9.]+)")
    h_wav = field(text, r"H\(wavelet\)\s+([-0-9.]+)")
    total = field(text, r"total-count\s+([0-9]+)")
    ok = (abs(h_vt - 0.5) <= 0.05 and abs(h_wav - 0.5) <= 0.05
          and abs(total - expected) <= 5 * expected ** 0.5)
    if not ok:
        tally.reasons.append("%s domain check: H(vt)=%g H(wav)=%g total=%g"
                             % (what, h_vt, h_wav, total))
    return ok, total


def workload_poisson(seed, seconds, tally, ctx):
    setup = [(poisson_argv(c, seed, POISSON["setup_events"]), None) for c in ("stream", "farm")]

    def one_pass():
        return [(c,) + run_cmd(poisson_argv(c, seed, POISSON["events"])) for c in ("stream", "farm")]

    runs, measured, setup_s = passes(seconds, 3, one_pass, setup_round(setup, tally, ctx))
    spec = {"events": POISSON["events"], "rate": POISSON["rate"], "bin": POISSON["bin"], "seed": seed}
    refs = {"stream": pb("ref", "stream", **spec)["text"],
            "farm": pb("ref", "farm", workers=2, **spec)["text"]}
    totals, dom_ok = {}, {}
    for cmd in refs:
        dom_ok[cmd], totals[cmd] = poisson_domain_ok(refs[cmd], tally, cmd)
    for cmd, rc, out, _, _ in runs:
        tally.op(rc == 0 and out.decode() == refs[cmd] and dom_ok[cmd],
                 "%s output differs from Core reference" % cmd)
    rates = {c: totals[c] / statistics.median(walls(measured, c)) for c in refs}
    wait = statistics.median(walls(measured, "farm")) * 1000
    ctx["walls"] = {c: statistics.median(walls(measured, c)) for c in refs}
    ctx["outputs"] = refs
    ctx["report"] = [("stream_events_per_s", rates["stream"], "1/s", len(measured)),
                     ("farm_events_per_s", rates["farm"], "1/s", len(measured))]
    return {"setup_s": setup_s, "throughput_per_s": rates["stream"], "wait_p50_ms": wait,
            "wait_tail_ms": wait, "peak_rss_mb": peak_rss_mb(measured)}, None


# ---------------------------------------------------------------- onoff-netsim


def netsim_argv(seed, events, replicas):
    n = NETSIM
    return [WANPOISSON, "netsim", "--model", "onoff", "--sources", str(n["sources"]),
            "--beta", str(n["beta"]), "--discipline", n["discipline"], "--topology",
            n["topology"], "--buffer", str(n["buffer"]), "--load", str(n["load"]),
            "--replicas", str(replicas), "--workers", str(n["workers"]),
            "--events", "%g" % events, "--seed", str(seed)]


def netsim_spec(seed):
    return dict(NETSIM, seed=seed, events="%g" % NETSIM["events"])


def workload_netsim(seed, seconds, tally, ctx):
    setup = setup_round([(netsim_argv(seed, 2000, 1), None)], tally, ctx)

    def one_pass():
        return [("netsim",) + run_cmd(netsim_argv(seed, NETSIM["events"], NETSIM["replicas"]))]

    runs, measured, setup_s = passes(seconds, 3, one_pass, setup)
    ref = pb("ref", "netsim", **netsim_spec(seed))["text"]
    util = field(ref, r"link 0\s+util\s+([0-9.]+)")
    packets = field(ref, r"packets\s+([0-9]+)")
    dom_ok = abs(util - NETSIM["load"]) <= 0.02
    if not dom_ok:
        tally.reasons.append("netsim link-0 utilization %g not within 0.02 of load" % util)
    for _, rc, out, _, _ in runs:
        tally.op(rc == 0 and out.decode() == ref and dom_ok, "netsim output differs from Core reference")
    w = statistics.median(walls(measured, "netsim"))
    rate = packets / w
    ctx["walls"] = {"netsim": w}
    ctx["outputs"] = {"netsim": ref}
    ctx["report"] = [("netsim_packets_per_s", rate, "1/s", len(measured))]
    return {"setup_s": setup_s, "throughput_per_s": rate, "wait_p50_ms": w * 1000,
            "wait_tail_ms": w * 1000, "peak_rss_mb": peak_rss_mb(measured)}, None


# ---------------------------------------------------------------- serve-stdin


def serve_argv():
    return [WANPOISSON, "serve", "--source", "stdin", "--bin", str(SERVE["bin"]),
            "--window", str(SERVE["window"]), "--cadence", str(SERVE["cadence"])]


def serve_input(seed, n):
    """n Poisson event times at SERVE's event rate, as text lines; plus
    each line's end offset and each event's bin, as serve bins them."""
    rng = random.Random(seed)
    t = 0.0
    lines = []
    for _ in range(n):
        t += rng.expovariate(SERVE["event_rate"])
        lines.append("%.6f\n" % t)
    data = "".join(lines).encode()
    ends = []
    off = 0
    for ln in lines:
        off += len(ln)
        ends.append(off)
    bins = [int(float(ln) / SERVE["bin"]) for ln in lines]
    return data, ends, bins


def pipe_through(argv, data, ends, rate):
    """Write data into argv's stdin and read its stdout in this one process
    with select, no threads. rate=None writes as fast as the pipe drains;
    otherwise line j is due at t0 + j / rate and is queued for the pipe
    when due, whether or not the program has drained the lines before it
    (open loop). Returns (rc, stdout, wall, rss kB, t0, [(line, read
    time)], [(queue time, first line, last line)]): the queue times say
    how late the generator itself ran; waiting on a full pipe is the
    program's backlog and shows in the estimate lags instead."""
    err_path = os.path.join(WORK, "serve.err")
    cmd, result = launched(argv)
    err = open(err_path, "wb")
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=err, cwd=ROOT, bufsize=0)
    fin, fout = p.stdin.fileno(), p.stdout.fileno()
    os.set_blocking(fin, False)
    try:
        fcntl.fcntl(fin, fcntl.F_SETPIPE_SZ, 1 << 20)
    except OSError:
        pass
    n = len(ends)
    view = memoryview(data)
    off = 0
    queued = 0  # lines handed to the outgoing queue
    in_open = True
    partial = b""
    lines = []
    batches = []
    out = []
    while True:
        now = time.perf_counter()
        due = n if rate is None else min(n, int((now - t0) * rate) + 1)
        if due > queued:
            batches.append((now, queued, due - 1))
            queued = due
        target = ends[queued - 1]
        if in_open and off >= len(data):
            p.stdin.close()
            in_open = False
        wl = [fin] if in_open and off < target else []
        timeout = 0.0005 if rate is not None and in_open else 1.0
        rl, wr, _ = select.select([fout], wl, [], timeout)
        if wr:
            try:
                off += os.write(fin, view[off:min(target, off + (1 << 20))])
            except BlockingIOError:
                pass
        if rl:
            chunk = os.read(fout, 1 << 16)
            tr = time.perf_counter()
            if not chunk:
                break
            out.append(chunk)
            if rate is not None:
                parts = (partial + chunk).split(b"\n")
                partial = parts.pop()
                lines.extend((ln, tr) for ln in parts)
    if in_open:
        p.stdin.close()
    p.wait()
    p.stdout.close()
    err.close()
    rc, wall, kb = launch_result(result, argv, err_path)
    return rc, b"".join(out), wall, kb, t0, lines, batches


def paced_serve(data, ends, bins):
    """One open-loop run. Returns (rc, stdout, rss kB, lags ms, lateness ms)."""
    rate = SERVE["paced_rate"]
    rc, out, _, kb, t0, lines, batches = pipe_through(serve_argv(), data, ends, rate)
    last = pbstats.last_event_by_bin(bins, bins[-1] + 1)
    ests = []
    for ln, tr in lines:
        if ln.startswith(b'{"type":"estimate"'):
            ests.append((json.loads(ln)["upto"], tr))
    lags = pbstats.estimate_lags_ms(ests, last, t0, rate)
    late = pbstats.lateness_ms(batches, t0, rate)
    return rc, out, kb, lags, late


def workload_serve(seed, seconds, tally, ctx):
    n = SERVE["events"]
    data, ends, bins = serve_input(seed, n)
    path = os.path.join(WORK, "serve-events.txt")
    with open(path, "wb") as f:
        f.write(data)
    ctx["serve_input"] = (path, data, ends, bins)
    one_window = SERVE["window"] * int(SERVE["event_rate"] * SERVE["bin"])
    small = os.path.join(WORK, "serve-setup.txt")
    with open(small, "wb") as f:
        f.write(data[:ends[one_window - 1]])
    setup = setup_round([(serve_argv(), small)], tally, ctx)
    paced_len = n / SERVE["paced_rate"]

    def one_pass():
        rc, out, wall, kb, _, _, _ = pipe_through(serve_argv(), data, ends, None)
        return [("serve", rc, out, wall, kb)]

    runs, measured, setup_s = passes(seconds - paced_len, 3, one_pass, setup)
    rc, paced_out, _, lags, late = paced_serve(data, ends, bins)
    ctx["gen_late"] = late
    ref = pb("ref", "serve", stdin_path=path, bin=SERVE["bin"], window=SERVE["window"],
             cadence=SERVE["cadence"])["text"].encode()
    summary = json.loads(ref.rstrip(b"\n").rsplit(b"\n", 1)[-1])
    dom_ok = summary.get("events") == n and summary.get("estimates") == len(lags)
    if not dom_ok:
        tally.reasons.append("serve summary %r does not match %d events / %d estimates"
                             % (summary, n, len(lags)))
    for _, rc_, out, _, _ in runs:
        tally.op(rc_ == 0 and out == ref and dom_ok, "unpaced serve output differs from Core reference")
    tally.op(rc == 0, "paced serve command failed")
    # Every estimate record of the paced run must equal the unpaced one.
    ref_lines = ref.split(b"\n")
    paced_lines = paced_out.split(b"\n")
    est = [i for i, ln in enumerate(ref_lines) if ln.startswith(b'{"type":"estimate"')]
    wrong = sum(1 for i in est if i >= len(paced_lines) or paced_lines[i] != ref_lines[i])
    if len(paced_lines) != len(ref_lines):
        wrong = max(wrong, 1)
    tally.op(True, "", len(est) - wrong)
    if wrong:
        tally.op(False, "%d paced estimate records differ from the unpaced run" % wrong, wrong)
    w = statistics.median(walls(measured, "serve"))
    rate = n / w
    p50, tail, tail_p = wait_metrics(lags)
    ctx["walls"] = {"serve": w}
    ctx["outputs"] = {"serve": ref.decode()}
    ctx["report"] = [("serve_events_per_s", rate, "1/s", len(measured)),
                     ("serve_lag_p50_ms", p50, "ms", len(lags)),
                     ("serve_lag_p%d_ms" % tail_p, tail, "ms", len(lags)),
                     ("serve.gen_late_p99_ms", pbstats.percentile(late, 99), "ms", len(late))]
    return {"setup_s": setup_s, "throughput_per_s": rate, "wait_p50_ms": p50,
            "wait_tail_ms": tail, "peak_rss_mb": peak_rss_mb(measured)}, tail_p


RUNNERS = {"poisson-lrd": workload_poisson, "onoff-netsim": workload_netsim,
           "serve-stdin": workload_serve}

# ---------------------------------------------------------------- traced run


def span_total(spans, name):
    return sum(b - a for _, _, n, a, b in spans if n == name) / 1e9


def traced(workload, seed, tally, ctx):
    """Per-layer metrics from span-traced replays of every workload's work
    (each at its own workload's size), plus this workload's unaccounted
    share and the tracing overhead of its own replays."""
    pspec = {"events": POISSON["events"], "rate": POISSON["rate"], "bin": POISSON["bin"], "seed": seed}
    if "serve_input" not in ctx:
        data, ends, bins = serve_input(seed, SERVE["events"])
        path = os.path.join(WORK, "serve-events.txt")
        with open(path, "wb") as f:
            f.write(data)
        ctx["serve_input"] = (path, data, ends, bins)
    path, data, ends, bins = ctx["serve_input"]
    if "gen_late" not in ctx:
        rc, _, _, _, late = paced_serve(data, ends, bins)
        tally.op(rc == 0, "paced serve command failed")
        ctx["gen_late"] = late
    sspec = {"bin": SERVE["bin"], "window": SERVE["window"], "cadence": SERVE["cadence"],
             "events_file": path}
    replays = {
        "stream": lambda s: pb("trace", "stream", spans=s, **pspec),
        "farm": lambda s: pb("trace", "farm", spans=s, workers=2, **pspec),
        "netsim": lambda s: pb("trace", "netsim", spans=s, **netsim_spec(seed)),
        "serve": lambda s: pb("trace", "serve", stdin_path=path, spans=s, **sspec),
        "registry": lambda s: pb("trace", "registry", spans=s, jobs=REGISTRY_JOBS, seed=seed),
    }
    r = {k: f(1) for k, f in replays.items()}
    r["prng"] = pb("trace", "prng", draws=r["stream"]["counts"]["draws"], seed=seed)
    r["pareto"] = pb("trace", "pareto", seed=seed)

    # The replays must do the work the commands did: the stream replay
    # prints the stream report, the netsim replay drops what netsim drops.
    outputs = ctx.get("outputs", {})
    stream_ref = outputs.get("stream") or pb("ref", "stream", **pspec)["text"]
    tally.op(r["stream"]["text"] == stream_ref, "stream replay report differs from Core.Streaming.run")
    netsim_ref = outputs.get("netsim") or pb("ref", "netsim", **netsim_spec(seed))["text"]
    link0 = netsim_ref.split("  link 1")[0]
    dropped = sum(int(x) for x in re.findall(r"^    class \d  served \d+  dropped (\d+)", link0, re.M))
    tally.op(dropped == r["netsim"]["counts"]["link0_dropped"], "netsim replay drops differ from Core.Netsim")

    st = {k: pbstats.self_times(v["spans"]) for k, v in r.items()}
    sec = {k: {n: t / 1e9 for n, t in d.items()} for k, d in st.items()}
    S, F, N, V = r["stream"]["counts"], r["farm"]["counts"], r["netsim"]["counts"], r["serve"]["counts"]
    ev, bn = S["events"], S["bins"]
    window_s = span_total(r["serve"]["spans"], "core.window")
    ia_s = span_total(r["serve"]["spans"], "stats.ia_sketch")
    serve_run_s = span_total(r["serve"]["spans"], "core.serve_run")
    durations = r["registry"]["durations_s"]
    work_s = sum(durations.values())
    m = {
        "prng.draw_ns": sec["prng"]["prng.fill_float"] / r["prng"]["counts"]["draws"] * 1e9,
        "traffic.poisson_gen_ns_per_event": sec["stream"]["traffic.poisson_gen"] / ev * 1e9,
        "timeseries.bin_ns_per_event": sec["stream"]["timeseries.bin"] / ev * 1e9,
        "timeseries.pyramid_ns_per_bin": sec["stream"]["timeseries.pyramid"] / bn * 1e9,
        "lrd.rs_ns_per_bin": sec["stream"]["lrd.rs"] / bn * 1e9,
        "stats.sketch_add_ns_per_bin": sec["stream"]["stats.sketch"] / bn * 1e9,
        "lrd.readout_ms": sec["stream"]["lrd.readout"] * 1e3,
        "engine.frame_us_per_shard": sec["farm"]["engine.frame"] / F["shards"] * 1e6,
        "engine.frame_bytes_per_shard": F["frame_bytes"] / F["shards"],
        "timeseries.snapshot_merge_us_per_shard": sec["farm"]["timeseries.snapshot_merge"] / F["shards"] * 1e6,
        "traffic.superpose_ns_per_arrival": sec["netsim"]["traffic.superpose"] / N["packets"] * 1e9,
        "queueing.network_ns_per_packet": sec["netsim"]["queueing.network"] / N["packets"] * 1e9,
        "queueing.drop_share": N["link0_dropped"] / N["link0_offered"],
        "core.window_us_per_estimate": window_s / V["estimates"] * 1e6,
        "core.window_ns_per_bin": window_s / V["bins"] * 1e9,
        "stats.ia_sketch_ns_per_event": ia_s / V["events"] * 1e9,
        "core.serve_ingest_ns_per_event": (serve_run_s - window_s - ia_s) / V["events"] * 1e9,
        "serve.gen_late_p99_ms": pbstats.percentile(ctx["gen_late"], 99),
        "lrd.pareto_count_ns_per_arrival": sec["pareto"]["lrd.pareto_count"] / r["pareto"]["counts"]["arrivals"] * 1e9,
        "registry.critical_path_s": max(durations.values()),
        "registry.work_s": work_s,
        "registry.parallel_efficiency": work_s / (REGISTRY_JOBS * r["registry"]["wall_s"]),
        "poisson.events": ev,
        "poisson.bins": bn,
        "farm.shards": F["shards"],
        "netsim.replicas": N["replicas"],
        "netsim.packets": N["packets"],
        "serve.events": V["events"],
        "serve.estimates": V["estimates"],
        "registry.experiments": len(durations),
    }

    # This workload's share of untraced capacity (wall x processes or
    # domains) that no span covers, and its replays traced vs untraced.
    walls = ctx["walls"]
    own = {"poisson-lrd": ["stream", "farm"], "onoff-netsim": ["netsim"],
           "serve-stdin": ["serve"]}[workload]
    if workload == "serve-stdin":
        acc = serve_run_s
    else:
        acc = sum(pbstats.accounted(r[k]["spans"]) for k in own) / 1e9
    cap = {"poisson-lrd": walls.get("stream", 0) + 2 * walls.get("farm", 0),
           "onoff-netsim": NETSIM["workers"] * walls.get("netsim", 0),
           "serve-stdin": walls.get("serve", 0)}[workload]
    m["unaccounted_share"] = pbstats.unaccounted_share(acc, cap)
    traced_wall = sum(r[k]["wall_s"] for k in own)
    untraced_wall = sum(replays[k](0)["wall_s"] for k in own)
    m["trace_overhead_share"] = traced_wall / untraced_wall - 1.0
    return m


# ---------------------------------------------------------------- main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print the workload and metric table as JSON and exit")
    a = ap.parse_args()
    if a.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if a.workload is None:
        ap.error("--workload is required")
    build()
    tally = Tally()
    # A traced run needs only the walls of the workload's commands (for its
    # unaccounted share), so it runs the fewest passes.
    ctx = {"traced": bool(a.trace)}
    e2e, tail_p = RUNNERS[a.workload](a.seed, 0 if a.trace else a.seconds, tally, ctx)
    if a.trace:
        metrics = traced(a.workload, a.seed, tally, ctx)
        units = {k: PER_LAYER[k][0] for k in PER_LAYER}
    else:
        metrics = e2e
        units = {k: END_TO_END[k][0] for k in END_TO_END}
    for reason in tally.reasons:
        log("FAILED: " + reason)
    print("workload %s seed %d%s" % (a.workload, a.seed,
                                     " (wait_tail_ms is p%d)" % tail_p if tail_p else ""))
    for name, value, unit, n in ctx["report"]:
        print("  %-26s %14.6g %-5s (n=%d)" % (name, value, unit, n))
    print("  %-26s %14.6g %-5s (%d/%d)" % ("failed_share", tally.failed / max(1, tally.attempted),
                                          "share", tally.failed, tally.attempted))
    for name in metrics:
        print("  %-26s %14.6g %s" % (name, metrics[name], units[name]))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
