#!/usr/bin/env python3
"""Replay and served-session benchmark with an outside-in layer ledger.

Run from the repository root:

    python3 perfbench/run.py --workload replay-nuca --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

    replay-nuca    `trace_tool replay <capture> --mix` under Whirlpool, then
                   Jigsaw, one process each
    replay-snuca   the same capture under LRU, then DRRIP
    serve-session  a fresh `trace_tool serve` daemon, two closed-loop
                   connections, a seeded request list

`--trace 0` reports the end-to-end metrics of BENCHMARK.json from untraced
runs; `--trace 1` reports its per-layer metrics from a traced run. The
command builds `trace_tool` and the `perfbench` helper (perfbench/Cargo.toml)
into $CARGO_TARGET_DIR (default .bench_build), works in .bench_work/, prints
every metric by name and unit, and ends with one JSON line
{"correct", "attempted", "failed", "metrics"}. It exits 1 if an output check
failed and 2 if the benchmark could not run.
"""

import argparse
import filecmp
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCENARIO = os.path.join(BENCH, "smoke.wps")

WORKLOADS = {
    "replay-nuca": ("Whirlpool", "Jigsaw"),
    "replay-snuca": ("LRU", "DRRIP"),
    "serve-session": None,
}
SERVE_CLASSES = ("replay", "record", "profile_miss", "sweep", "scenario")
LIGHT_CLASSES = ("status", "profile_hit")
SETUPS = 5  # set-ups per run; setup_s is their median
TAIL_LADDER = (99.9, 99, 98, 95, 90, 75, 50)
PROCESS_TIMEOUT_S = 150


class CannotRun(Exception):
    """The benchmark could not run at all (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Tools:
    """Built binaries, the run's working directory and its child env."""

    def __init__(self, work):
        target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        self.tool = os.path.join(target, "release", "trace_tool")
        self.helper = os.path.join(target, "release", "perfbench")
        self.work = work
        self.stderr = open(os.path.join(work, "stderr.log"), "ab")
        # The program sees only the generated inputs: no inherited knobs.
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("WP_")}
        self.env["CARGO_TARGET_DIR"] = target
        self.env["WP_TRACE_CACHE"] = os.path.join(work, "trace-cache")

    def build(self):
        for cmd in (
            ["cargo", "build", "-q", "--release", "--offline", "-p", "wp-serve", "--bin", "trace_tool"],
            ["cargo", "build", "-q", "--release", "--offline", "--manifest-path",
             os.path.join(BENCH, "Cargo.toml")],
        ):
            if subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=sys.stderr).returncode:
                raise CannotRun("build failed: " + " ".join(cmd))

    def run(self, argv, cwd=None):
        """Runs argv to completion: (wall s, max RSS MB, exit code, stdout)."""
        start = time.perf_counter()
        p = subprocess.Popen(
            argv, cwd=cwd or self.work, env=self.env, stdout=subprocess.PIPE, stderr=self.stderr
        )
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
        watchdog.start()
        try:
            out = p.stdout.read().decode()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            watchdog.cancel()
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
        return time.perf_counter() - start, usage.ru_maxrss / 1024, p.returncode, out

    def helper_json(self, args, cwd=None):
        """Runs a helper subcommand and returns its JSON object."""
        wall, _, code, out = self.run([self.helper] + args, cwd)
        if code != 0:
            raise CannotRun(f"perfbench {args[0]} exited {code} (see {self.stderr.name})")
        return wall, json.loads(out.strip().splitlines()[-1])


class Result:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, failures):
        self.failures.extend(failures)


def check_summary(text, events):
    """A replay's RunSummary: per core hits + misses == accesses, and the
    cores' accesses + bypasses cover every event of the replayed trace."""
    try:
        cores = json.loads(text)["cores"]
    except (ValueError, KeyError, TypeError):
        return False
    return all(c["llc_hits"] + c["llc_misses"] == c["llc_accesses"] for c in cores) and sum(
        c["llc_accesses"] + c["llc_bypasses"] for c in cores
    ) == events


def instructions(text):
    return sum(c["instructions"] for c in json.loads(text)["cores"])


def tail(latencies):
    """The highest ladder percentile with at least ten requests beyond it
    (nearest rank). A run of fewer than 20 requests falls back to the
    highest with at least one beyond it, so no single request sets it."""
    xs = sorted(latencies)
    n = len(xs)
    for beyond in (10, 1):
        for p in TAIL_LADDER:
            if n * (100 - p) / 100 >= beyond:
                return xs[math.ceil(p / 100 * n) - 1], f"p{p:g} of {n} requests"
    return xs[-1], f"max of {n} requests"


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------------------
# replay-nuca / replay-snuca
# --------------------------------------------------------------------------


def replay_setup(t, seed, res, times):
    """Records and validates the seeded mix capture `times` times; every
    recording must be byte-identical. Returns (setup s samples, path, info)."""
    walls, keep, info = [], None, None
    for k in range(times):
        path = os.path.join(t.work, f"mix{k}.wpt")
        wall, out = t.helper_json(["capture", "--seed", str(seed), "--out", path])
        walls.append(wall)
        if keep is None:
            keep, info = path, out
        else:
            res.op(filecmp.cmp(keep, path, shallow=False), "same seed recorded a different capture")
            os.remove(path)
    res.op(info["events"] > 0, "the capture holds no events")
    return walls, keep, info


def replay_e2e(t, seed, seconds, schemes, res):
    setup, capture, info = replay_setup(t, seed, res, SETUPS)
    events = info["events"]
    first, iterations, heavy, light, rss = {}, [], [], [], 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not iterations:
        wall, instrs = 0.0, 0
        for scheme in schemes:
            # What any offline call on the capture pays before it simulates:
            # process start and the validating scan, here with nothing after.
            w, _, code, out = t.run([t.tool, "info", capture])
            light.append(w * 1e3)
            res.op(
                code == 0 and f"{info['bytes']} bytes," in out and f" {events} events total" in out,
                "trace_tool info failed or misdescribed the capture",
            )
            w, mb, code, out = t.run([t.tool, "replay", capture, "--mix", "--scheme", scheme])
            heavy.append(w * 1e3)
            rss = max(rss, mb)
            wall += w
            ok = code == 0 and check_summary(out, events) and first.setdefault(scheme, out) == out
            res.op(ok, f"{scheme} replay failed or failed its output check")
            if ok:
                instrs += instructions(out)
        iterations.append((wall, instrs))
    elapsed = time.perf_counter() - start
    tail_ms, tail_note = tail(heavy)
    return {
        "setup_s": median(setup),
        "wall_s": median([w for w, _ in iterations]),
        "sim_mips": median([i / w / 1e6 for w, i in iterations]),
        "peak_rss_mb": rss,
        "req_per_s": len(heavy) / elapsed,
        "light_p50_ms": median(light),
        "heavy_p50_ms": median(heavy),
        "latency_tail_ms": tail_ms,
    }, [
        f"{len(iterations)} iterations of {'+'.join(schemes)}, {len(heavy)} replays;"
        f" latency_tail_ms is the {tail_note}",
        f"capture: {events} events, {info['instructions']} instructions, {info['bytes']} bytes",
    ]


def replay_layers(t, seed, schemes, res):
    _, capture, info = replay_setup(t, seed, res, 1)
    _, d = t.helper_json(
        ["traced", "--capture", capture, "--schemes", ",".join(schemes), "--tool", t.tool]
    )
    res.fail(d["failures"])
    m = zero_layers()
    notes = []
    wall = process = covered = 0.0
    for s in schemes:
        x = d[s]
        res.op(check_summary(x["stdout"], info["events"]), f"{s} replay failed its output check")
        res.attempted += 1  # the traced replay; the helper reported its failures
        m["trace.scan_s"] += x["scan_s"]
        m["trace.bundle_s"] += x["bundle_s"]
        m["trace.fill_s"] += x["fill_s"]
        m["sim.run_s"] += x["run_s"]
        m["sim.fold_s"] += x["run_s"] - x["fill_s"] - x["access_s"] - x["reconfigure_s"]
        m["sim.quanta"] += x["quanta"]
        m[f"scheme.access_ns_per_event.{s}"] = x["access_s"] / x["events"] * 1e9
        m[f"scheme.reconfigure_calls.{s}"] = x["reconfigure_calls"]
        if f"scheme.reconfigure_us_per_call.{s}" in m:
            m[f"scheme.reconfigure_us_per_call.{s}"] = (
                x["reconfigure_s"] / max(x["reconfigure_calls"], 1) * 1e6
            )
        for k in ("llc_hits", "llc_misses", "llc_bypasses", "cycles"):
            m[f"model.{k}.{s}"] = x[k]
        wall += x["wall_s"]
        process += x["process_s"]
        covered += x["scan_s"] + x["bundle_s"] + x["run_s"]
        notes.append(
            f"{s}: traced {x['wall_s']:.3f} s = scan {x['scan_s']:.3f} + bundle {x['bundle_s']:.3f}"
            f" + fill {x['fill_s']:.3f} + access {x['access_s']:.3f}"
            f" + reconfigure {x['reconfigure_s']:.3f} + fold"
            f" {x['run_s'] - x['fill_s'] - x['access_s'] - x['reconfigure_s']:.3f}"
            f" (+ rest); untraced process {x['process_s']:.3f} s"
        )
    m["trace.decode_ns_per_event"] = d["decode_ns_per_event"]
    m["trace.encode_ns_per_event"] = d["encode_ns_per_event"]
    m["ledger.unaccounted_pct"] = (wall - covered) / wall * 100
    m["ledger.trace_overhead_pct"] = (wall / process - 1) * 100
    return m, notes


# --------------------------------------------------------------------------
# serve-session
# --------------------------------------------------------------------------


class Daemon:
    """A fresh `trace_tool serve` with its own socket, cache and state."""

    def __init__(self, t, cwd):
        self.t, self.cwd = t, cwd
        self.sock = os.path.join(cwd, "wp.sock")
        self.proc = subprocess.Popen(
            [t.tool, "serve", "--socket", "wp.sock", "--cache-dir", "cache",
             "--state-dir", "state", "--workers", "2"],
            cwd=cwd, env=t.env, stdout=subprocess.DEVNULL, stderr=t.stderr,
        )
        deadline = time.perf_counter() + 30
        while not os.path.exists(self.sock):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                raise CannotRun(f"daemon did not start (see {t.stderr.name})")
            time.sleep(0.002)

    def stop(self):
        """Sends `shutdown` and waits: (clean exit?, max RSS MB)."""
        _, _, code, _ = self.t.run([self.t.tool, "shutdown", "--connect", "wp.sock"], self.cwd)
        deadline = time.perf_counter() + 30
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.kill()
                return False, 0.0
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        clean = code == 0 and self.proc.returncode == 0 and not os.path.exists(self.sock)
        return clean, usage.ru_maxrss / 1024

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def session_args(seed, pass_no, seconds):
    return ["session", "--socket", "wp.sock", "--seed", str(seed), "--pass", str(pass_no),
            "--seconds", str(seconds), "--scenario", SCENARIO]


def serve_setup(t, seed, k, res, daemons):
    """Records the session traces, starts a fresh daemon and runs the
    warm-up pass. Returns (seconds, trace events, daemon, cwd)."""
    cwd = os.path.join(t.work, f"serve{k}")
    os.makedirs(cwd)
    start = time.perf_counter()
    _, traces = t.helper_json(["serve-traces", "--seed", str(seed)], cwd)
    daemon = Daemon(t, cwd)
    daemons.append(daemon)
    _, warm = t.helper_json(session_args(seed, 0, 0), cwd)
    setup = time.perf_counter() - start
    check_session(warm, traces["events"], res)
    return setup, traces["events"], daemon, cwd


def check_session(d, events, res):
    """Counts a session's requests; checks its replay and memo-miss profile
    replies against the traces' event counts."""
    res.attempted += d["requests"]
    res.fail(d["failures"])
    for r in d["replies"]:
        n = events[int(r["trace"][1:-4])]
        if r["class"] == "replay":
            ok = len(r["lines"]) == 1 and check_summary(r["lines"][0], n)
        else:
            ok = json.loads(r["lines"][0])["streams"][0]["events"] == n
        if not ok:
            res.failures.append(f"served {r['class']} of {r['trace']} failed its output check")


def stop_checked(daemon, res):
    clean, rss = daemon.stop()
    res.op(clean, "daemon did not shut down cleanly")
    return rss


def serve_e2e(t, seed, seconds, res, daemons):
    setups = []
    for k in range(SETUPS):
        setup, events, daemon, cwd = serve_setup(t, seed, k, res, daemons)
        setups.append(setup)
        if k < SETUPS - 1:
            stop_checked(daemon, res)
    _, d = t.helper_json(session_args(seed, 1, seconds) + ["--check"], cwd)
    check_session(d, events, res)
    rss = stop_checked(daemon, res)
    lat = d["latency_ms"]
    light = [x for c in LIGHT_CLASSES for x in lat.get(c, [])]
    heavy = [x for c in SERVE_CLASSES for x in lat.get(c, [])]
    tail_ms, tail_note = tail(light + heavy)
    return {
        "setup_s": median(setups),
        "wall_s": d["elapsed_s"] / (d["requests"] / d["pass_len"]),
        "sim_mips": d["instructions"] / d["elapsed_s"] / 1e6,
        "peak_rss_mb": rss,
        "req_per_s": d["requests"] / d["elapsed_s"],
        "light_p50_ms": median(light),
        "heavy_p50_ms": median(heavy),
        "latency_tail_ms": tail_ms,
    }, [
        f"{d['requests']} requests ({d['requests'] / d['pass_len']:.1f} passes) in"
        f" {d['elapsed_s']:.1f} s; latency_tail_ms is the {tail_note}"
    ]


def serve_layers(t, seed, seconds, res, daemons):
    _, events, daemon, cwd = serve_setup(t, seed, 0, res, daemons)
    _, d = t.helper_json(session_args(seed, 1, seconds) + ["--check", "--traced"], cwd)
    check_session(d, events, res)
    stop_checked(daemon, res)
    m = zero_layers()
    m["trace.scan_s"] = d["scan_s"]
    m["trace.decode_ns_per_event"] = d["decode_ns_per_event"]
    m["trace.encode_ns_per_event"] = d["encode_ns_per_event"]
    m["mrc.profile_ns_per_event.exact"] = d["profile_exact_ns_per_event"]
    m["mrc.profile_ns_per_event.sampled"] = d["profile_sampled_ns_per_event"]
    m["serve.ack_ms"] = median(d["ack_ms"])
    for c in SERVE_CLASSES:
        lat, op = median(d["latency_ms"].get(c, [])), median(d["op_ms"].get(c, []))
        m[f"serve.latency_ms.{c}"] = lat
        m[f"serve.op_ms.{c}"] = op
        m[f"serve.wait_ms.{c}"] = lat - op
    counters = d["counters"]
    m["serve.curve_memo_hits"] = counters["curve_store_hits"]
    m["serve.curve_memo_misses"] = counters["curve_store_misses"]
    m["serve.trace_cache_hits"] = counters["trace_cache_hits"]
    m["serve.trace_cache_misses"] = counters["trace_cache_misses"]
    m["serve.queue_high_water"] = counters["serve_queue_high_water"]
    m["ledger.unaccounted_pct"] = d["idle_s"] / (2 * d["elapsed_s"]) * 100
    untraced, traced = d["untraced_requests"], d["requests"] - d["untraced_requests"]
    m["ledger.trace_overhead_pct"] = (
        (untraced / d["untraced_s"]) / (traced / d["traced_s"]) - 1
    ) * 100
    return m, [f"{d['requests']} requests: {untraced} untraced, then {traced} traced"]


# --------------------------------------------------------------------------


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        b = json.load(f)
    return {m["name"]: m["unit"] for m in b["end_to_end"]}, {
        m["name"]: m["unit"] for m in b["per_layer"]
    }


def zero_layers():
    """Every per-layer metric at 0: a layer the workload does not run."""
    return {name: 0.0 for name in spec()[1]}


def measure(t, a, res, daemons):
    schemes = WORKLOADS[a.workload]
    if a.trace:
        if schemes:
            return replay_layers(t, a.seed, schemes, res)
        return serve_layers(t, a.seed, a.seconds, res, daemons)
    if schemes:
        return replay_e2e(t, a.seed, a.seconds, schemes, res)
    return serve_e2e(t, a.seed, a.seconds, res, daemons)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "serve")
    ):
        log("perfbench: no repository sources next to perfbench/; run from a full checkout")
        return 2
    work = os.path.join(ROOT, ".bench_work", f"{a.workload}-{os.getpid()}")
    os.makedirs(work)
    daemons = []
    try:
        t = Tools(work)
        t.build()
        units = spec()[1 if a.trace else 0]
        res = Result()
        metrics, notes = measure(t, a, res, daemons)
        if set(metrics) != set(units):
            raise CannotRun(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    except (CannotRun, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e!r}")
        return 2
    finally:
        for d in daemons:
            d.kill()
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it
    print(f"{a.workload} seed {a.seed} ({'traced, per layer' if a.trace else 'untraced, end to end'})")
    for note in notes:
        print(f"  {note}")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    for f in res.failures:
        print(f"  FAILED: {f}")
    failed = len(res.failures)
    attempted = max(res.attempted, failed, 1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
