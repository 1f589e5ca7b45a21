"""Campaign benchmark: end-to-end and per-layer host time of SFI campaigns.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scalar --seed 1 --seconds 38 --trace 0

This process is the load generator.  It runs one campaign at a time
(a closed loop of one client), each in a fresh child process
(``child.py``), so set-up, caches and peak memory are what a CLI user
pays.  It runs rounds of the fixed plans until ``--seconds`` is used up,
then one untimed check campaign on another engine path, and compares
every record (see ``NOTES.md``).

``--trace 0`` reports the end-to-end metrics from untraced campaigns.
``--trace 1`` alternates untraced and traced campaigns and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the process exits non-zero
when any record is missing or differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SUITE_SIZE = 4          # the CLI's --suite-size default
SITES = 400             # planned trials of scalar, bitplane and pool-journal
SLOW_PREFIX = 100       # slowpath runs sites[:SLOW_PREFIX]
POOL_WORKERS = 2
ORACLE_STRIDE = 30      # fast workloads are checked against the slow path
# Every run measures the same plans: the CLI campaigns of these seeds.
# A fresh random plan per --seed is too heavy-tailed to compare runs:
# see NOTES.md.
PLAN_SEEDS = (1, 2, 3)
CHILD_TIMEOUT_S = 120
# A /proc scan costs about 3 ms, taken from the CPUs the pool's workers
# use; worker memory plateaus for seconds, so 4 Hz still finds the peak.
RSS_SAMPLE_S = 0.25

WORKLOADS = {
    "scalar": {"backend": "scalar", "fastpath": True, "workers": 1,
               "trials": SITES},
    "bitplane": {"backend": "bitplane", "fastpath": True, "workers": 1,
                 "trials": SITES},
    "pool-journal": {"backend": "scalar", "fastpath": True,
                     "workers": POOL_WORKERS, "trials": SITES},
    "slowpath": {"backend": "scalar", "fastpath": False, "workers": 1,
                 "trials": SLOW_PREFIX},
}

END_TO_END_UNITS = {
    "trials_per_s": "1/s", "setup_s": "s", "wall_s": "s",
    "trial_ms_p50": "ms", "trial_ms_p99": "ms", "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """A campaign process failed; no result can be reported."""


# ----------------------------------------------------------------------
# Child processes.

def _tree_rss_kb(root: int) -> int:
    """Summed resident memory of ``root`` and all its descendants."""
    parents: dict[int, int] = {}
    rss: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/status") as handle:
                status = handle.read()
        except OSError:
            continue
        pid = int(entry)
        for line in status.splitlines():
            if line.startswith("PPid:"):
                parents[pid] = int(line.split()[1])
            elif line.startswith("VmRSS:"):
                rss[pid] = int(line.split()[1])
    tree, frontier = {root}, [root]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent and pid not in tree:
                tree.add(pid)
                frontier.append(pid)
    return sum(rss.get(pid, 0) for pid in tree)


def _reap_group(pgid: int) -> None:
    """Wait until every process of the child's session has ended."""
    deadline = time.monotonic() + 10
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            os.killpg(pgid, signal.SIGKILL)
        time.sleep(0.02)


def run_child(spec: dict, tag: str, sample_tree: bool) -> dict:
    """Run one campaign process and return its result document."""
    os.makedirs(spec["scratch"], exist_ok=True)
    spec_path = os.path.join(spec["scratch"], f"{tag}.spec.json")
    out_path = os.path.join(spec["scratch"], f"{tag}.out.json")
    with open(spec_path, "w") as handle:
        json.dump(spec, handle)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path, out_path],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    peak = [0]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(RSS_SAMPLE_S):
            peak[0] = max(peak[0], _tree_rss_kb(proc.pid))

    sampler = threading.Thread(target=sample, daemon=True)
    if sample_tree:
        sampler.start()
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException as exc:
        # Timed out, interrupted or terminated: take the campaign's whole
        # session down with us.
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchmarkError(
                f"campaign {tag} exceeded {CHILD_TIMEOUT_S} s") from exc
        raise
    finally:
        stop.set()
        if sample_tree:
            sampler.join()
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise BenchmarkError(
            f"campaign {tag} exited with {proc.returncode}:\n"
            + stderr.decode(errors="replace")[-4000:])
    with open(out_path) as handle:
        result = json.load(handle)
    os.remove(spec_path)
    os.remove(out_path)
    result["peak_kb"] = max(result["rss_kb"], peak[0])
    return result


# ----------------------------------------------------------------------
# Correctness: every record against the check campaign, the other
# campaigns of this run, and earlier runs of any workload.

def check_records(workload: str, campaigns: list[dict],
                  check: list[dict]) -> tuple[int, int, list[str]]:
    """Return ``(attempted, failed, problems)`` over all campaigns."""
    problems: list[str] = []
    reference: dict[tuple[int, int], tuple[str, str]] = {}
    for plan in check:
        for position in plan["planned"]:
            digest = plan["digests"].get(str(position))
            if digest is None:
                problems.append(f"check campaign of plan {plan['seed']} "
                                f"lost position {position}")
            else:
                reference[plan["seed"], position] = (digest,
                                                     "the check campaign")
    stores = {}
    for seed in {campaign["seed"] for campaign in campaigns}:
        path = os.path.join(OUT, "records", f"plan-{seed}-n{SITES}.json")
        store = {"digests": {}, "workloads": {}}
        if os.path.exists(path):
            with open(path) as handle:
                store = json.load(handle)
        stores[seed] = (path, store)
        for key, digest in store["digests"].items():
            reference.setdefault((seed, int(key)), (
                digest, "an earlier run of " + store["workloads"][key]))
    attempted = failed = 0
    for index, campaign in enumerate(campaigns):
        seed = campaign["seed"]
        for position in campaign["planned"]:
            attempted += 1
            digest = campaign["digests"].get(str(position))
            expected = reference.get((seed, position))
            where = f"campaign {index} (plan {seed}) position {position}"
            if digest is None:
                failed += 1
                problems.append(f"{where}: no record")
            elif expected is None:
                reference[seed, position] = (digest, f"campaign {index}")
            elif digest != expected[0]:
                failed += 1
                problems.append(f"{where}: record differs from {expected[1]}")
    if not problems:
        for seed, (path, store) in stores.items():
            for (plan_seed, position), (digest, _) in reference.items():
                if plan_seed == seed and str(position) not in store["digests"]:
                    store["digests"][str(position)] = digest
                    store["workloads"][str(position)] = workload
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + ".tmp", "w") as handle:
                json.dump(store, handle)
            os.replace(path + ".tmp", path)
    return attempted, failed, problems


# ----------------------------------------------------------------------
# Metrics.

def gaps_ms(campaign: dict) -> list[float]:
    """Gap before every delivered record, the first from the call."""
    times = [campaign["begin"]] + campaign["times"]
    return [1000.0 * (b - a) for a, b in zip(times, times[1:])]


def trials_per_s(campaign: dict) -> float:
    return len(campaign["planned"]) / campaign["campaign_s"]


def per_plan(campaigns: list[dict], value) -> dict[int, float]:
    """Median of ``value`` over the repeats of each plan."""
    by_seed: dict[int, list[float]] = {}
    for campaign in campaigns:
        by_seed.setdefault(campaign["seed"], []).append(value(campaign))
    return {seed: statistics.median(values)
            for seed, values in by_seed.items()}


def end_to_end(campaigns: list[dict]) -> dict:
    """Each plan's repeats are reduced to their median first, so every
    plan weighs the same however many rounds ran."""
    gaps = [gap for campaign in campaigns for gap in gaps_ms(campaign)]
    cuts = statistics.quantiles(gaps, n=100)
    campaign_s = per_plan(campaigns, lambda c: c["campaign_s"])
    trials = per_plan(campaigns, lambda c: len(c["planned"]))
    return {
        "trials_per_s": sum(trials.values()) / sum(campaign_s.values()),
        "setup_s": statistics.median(c["setup_s"] for c in campaigns),
        "wall_s": statistics.fmean(per_plan(
            campaigns, lambda c: c["setup_s"] + c["campaign_s"]).values()),
        "trial_ms_p50": statistics.median(gaps),
        "trial_ms_p99": cuts[98],
        "peak_rss_mb": statistics.fmean(per_plan(
            campaigns, lambda c: c["peak_kb"] / 1024.0).values()),
    }


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".retries", ".splits", ".degrades")) \
            or ".exit." in name:
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".bytes_per_trial"):
        return "B"
    if name.endswith(".cycles_per_trial"):
        return "cycles"
    return "frac"


EXIT_KINDS = ("golden", "masked", "rejoin", "wave-converge", "wave-survive")


def _merge(summaries: list[dict]) -> dict:
    merged: dict[str, dict] = {}
    for summary in summaries:
        for table, values in summary.items():
            slot = merged.setdefault(table, {})
            for key, value in values.items():
                slot[key] = slot.get(key, 0) + value
    return merged


def layer_metrics(campaign: dict, workers: list[dict]) -> dict:
    """Per-layer metrics of one traced campaign (workers summed)."""
    trials = len(campaign["planned"])
    wall = campaign["campaign_s"]
    parent = campaign["layers"]
    layers = _merge([parent] + [w["summary"] for w in workers])
    self_s, calls, counts = (layers.get(table, {}) for table in
                             ("self_s", "calls", "counts"))

    def s(phase, name):
        return self_s.get(f"{phase}:{name}", 0.0)

    def n(phase, name):
        return calls.get(f"{phase}:{name}", 0)

    def k(phase, key):
        return counts.get(f"{phase}:{key}", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    exits = dict(campaign.get("exits") or {})
    for worker in workers:
        for key, value in worker["summary"].get("counts", {}).items():
            name = key.partition(":")[2]
            if name.startswith("exit."):
                kind = name[len("exit."):]
                exits[kind] = exits.get(kind, 0) + value
    exit_counts = {kind: exits.get(kind, 0) for kind in EXIT_KINDS}
    exit_counts["none"] = trials - sum(exit_counts.values())
    digest_calls = n("campaign", "cpu.state_digest")
    wave_lanes = k("campaign", "wave_lanes")
    if workers:
        parent_campaign = sum(v for key, v in parent["self_s"].items()
                              if key.startswith("campaign:"))
        worker_self = sum(sum(w["summary"]["self_s"].values())
                          for w in workers)
        attributed = parent_campaign + worker_self / len(workers)
    else:
        attributed = sum(v for key, v in self_s.items()
                         if key.startswith("campaign:"))
    times = campaign["times"]
    metrics = {
        "cpu.state_digest.self_s": s("campaign", "cpu.state_digest"),
        "cpu.state_digest.calls": digest_calls,
        "cpu.state_digest.us_per_call": 1e6 * ratio(
            s("campaign", "cpu.state_digest"), digest_calls),
        "cpu.snapshot.self_s": s("campaign", "cpu.snapshot"),
        "cpu.restore.self_s": s("campaign", "cpu.restore"),
        "setup.cpu.state_digest.self_s": s("setup", "cpu.state_digest"),
        "setup.cpu.state_digest.calls": n("setup", "cpu.state_digest"),
        "setup.cpu.snapshot.self_s": s("setup", "cpu.snapshot"),
        "emulator.clock.self_s": s("campaign", "emulator.clock"),
        "emulator.clock.calls": n("campaign", "emulator.clock"),
        "emulator.cycles_per_trial": ratio(k("campaign", "cycles"), trials),
        "emulator.restore_nearest.self_s": s("campaign",
                                             "emulator.restore_nearest"),
        "emulator.ladder_hit_ratio": ratio(
            k("campaign", "ladder_hits"),
            n("campaign", "emulator.restore_nearest")),
        "emulator.save_rung.self_s": s("campaign", "emulator.save_rung"),
        "emulator.save_rung.calls": n("campaign", "emulator.save_rung"),
        "emulator.inject.self_s": s("campaign", "emulator.inject"),
        "emulator.reload.self_s": s("campaign", "emulator.reload"),
        "setup.emulator.clock.self_s": s("setup", "emulator.clock"),
        "setup.emulator.save_rung.calls": n("setup", "emulator.save_rung"),
        "bitplane.compile_netlist.self_s": (
            s("setup", "bitplane.compile_netlist")
            + s("campaign", "bitplane.compile_netlist")),
        "bitplane.resolve_wave.self_s": s("campaign",
                                          "bitplane.resolve_wave"),
        "bitplane.resolve_wave.calls": n("campaign", "bitplane.resolve_wave"),
        "bitplane.inplane_ratio": ratio(
            exit_counts["wave-converge"] + exit_counts["wave-survive"],
            wave_lanes),
        "sfi.classify.self_s": s("campaign", "sfi.classify"),
        **{f"sfi.exit.{kind}": count for kind, count in exit_counts.items()},
        "sfi.shortcut_ratio": ratio(trials - exit_counts["none"], trials),
        "sfi.digest_yield": ratio(
            exit_counts["golden"] + exit_counts["masked"]
            + exit_counts["rejoin"], digest_calls),
        "sfi.unattributed_s": wall - attributed,
        "sfi.attributed_frac": ratio(attributed, wall),
        "setup.sfi.experiment_init.self_s": s("setup", "sfi.experiment_init"),
        "storage.append.self_s": s("campaign", "storage.append"),
        "storage.append.calls": n("campaign", "storage.append"),
        "storage.bytes_per_trial": ratio(campaign.get("journal_bytes", 0),
                                         trials),
        "supervisor.first_record_s": (times[0] - campaign["begin"]
                                      if workers and times else 0.0),
        "supervisor.worker_setup_s": sum(
            w["summary"]["total_s"].get("setup:sfi.experiment_init", 0.0)
            for w in workers),
        "supervisor.worker_busy_frac": ratio(
            sum(w["busy_s"] for w in workers), len(workers) * wall),
        "setup.avp.make_suite.self_s": s("setup", "avp.make_suite"),
    }
    events = campaign.get("supervisor") or {}
    for event in ("retries", "splits", "degrades"):
        metrics[f"supervisor.{event}"] = events.get(event, 0)
    return metrics


# ----------------------------------------------------------------------
# History.

def source_identity() -> tuple[str | None, str]:
    """Commit hash (when the checkout is a git work tree) and a digest
    of every file under ``src``."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as handle:
                    commit = handle.read().strip()
    digest = hashlib.sha256()
    for directory, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return commit, digest.hexdigest()[:16]


def append_history(entry: dict) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "history.jsonl"), "a") as handle:
        handle.write(json.dumps(entry) + "\n")


# ----------------------------------------------------------------------

def base_spec(workload: str, scratch: str) -> dict:
    shape = WORKLOADS[workload]
    return {"suite_size": SUITE_SIZE, "sites": SITES,
            "backend": shape["backend"], "fastpath": shape["fastpath"],
            "workers": shape["workers"], "trials": shape["trials"],
            "plans": [], "trace": False, "src": SRC, "scratch": scratch,
            "span_dir": scratch}


def plan_order(seed: int) -> list[int]:
    """The fixed plans, rotated by the seed."""
    start = seed % len(PLAN_SEEDS)
    return list(PLAN_SEEDS[start:] + PLAN_SEEDS[:start])


def check_spec(workload: str, seed: int, scratch: str) -> dict:
    """The untimed campaign whose records the measured ones must match:
    the slow path on every ORACLE_STRIDE-th position of each plan (from
    a seed-chosen offset) for the fast workloads, and the scalar fast
    path on the whole prefix for slowpath."""
    fast = WORKLOADS[workload]["fastpath"]
    spec = base_spec(workload, scratch)
    spec.update(workers=1, backend="scalar", fastpath=not fast)
    for plan_seed in PLAN_SEEDS:
        positions = None
        if fast:
            offset = (seed + plan_seed) % ORACLE_STRIDE
            positions = list(range(offset, spec["trials"], ORACLE_STRIDE))
        spec["plans"].append({"seed": plan_seed, "positions": positions})
    return spec


def read_worker_summaries(span_dir: str) -> list[dict]:
    workers = []
    for name in sorted(os.listdir(span_dir)):
        if name.startswith("worker-"):
            with open(os.path.join(span_dir, name)) as handle:
                document = json.load(handle)
            workers.append({"summary": document["summary"],
                            "busy_s": document["busy_s"]})
    return workers


def measure(workload: str, seed: int, seconds: int, trace: bool,
            scratch: str) -> tuple[list[dict], list[dict]]:
    """Run rounds of every plan while the next round is expected to end
    less than half a round past ``seconds`` (at least one round).  With
    ``trace``, each plan runs untraced and then traced.  Returns the
    untraced and traced campaigns."""
    sample_tree = WORKLOADS[workload]["workers"] > 1
    untraced: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        for plan_seed in plan_order(seed):
            for tracing in ((False, True) if trace else (False,)):
                spec = base_spec(workload, scratch)
                spec["plans"] = [{"seed": plan_seed, "positions": None}]
                tag = f"plan{plan_seed}-{len(untraced) + len(traced)}"
                if tracing:
                    spec.update(trace=True, span_dir=os.path.join(
                        OUT, "spans", workload, tag))
                    os.makedirs(spec["span_dir"])
                result = run_child(spec, tag, sample_tree)
                campaign = result["plans"][0]
                campaign["peak_kb"] = result["peak_kb"]
                if tracing:
                    campaign["workers"] = read_worker_summaries(
                        spec["span_dir"])
                    traced.append(campaign)
                else:
                    untraced.append(campaign)
        now = time.perf_counter()
        if now - started + (now - round_started) / 2 > seconds:
            return untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no package source at {SRC}/repro: run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    # A terminated benchmark unwinds, so run_child stops its campaign.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    workload, seed = args.workload, args.seed
    scratch = os.path.join(OUT, "tmp", f"{workload}-{os.getpid()}")
    if args.trace:
        shutil.rmtree(os.path.join(OUT, "spans", workload),
                      ignore_errors=True)
    try:
        untraced, traced = measure(workload, seed, args.seconds,
                                   bool(args.trace), scratch)
        check = run_child(check_spec(workload, seed, scratch), "check",
                          False)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    attempted, failed, problems = check_records(
        workload, untraced + traced, check["plans"])
    for problem in problems[:20]:
        print(f"MISMATCH {workload}: {problem}", file=sys.stderr)
    correct = not problems

    e2e = end_to_end(untraced)
    if args.trace:
        per_campaign = [layer_metrics(c, c["workers"]) for c in traced]
        metrics = {name: statistics.fmean(m[name] for m in per_campaign)
                   for name in per_campaign[0]}
        metrics["trace.overhead_frac"] = 1.0 - (
            sum(map(trials_per_s, traced)) / sum(map(trials_per_s, untraced)))
        units = {name: layer_unit(name) for name in metrics}
        cycles = metrics["emulator.cycles_per_trial"]
    else:
        metrics = e2e
        units = END_TO_END_UNITS
        serial = [c["cycles"] for c in untraced if c["cycles"] is not None]
        cycles = (sum(serial) / sum(len(c["planned"]) for c in untraced)
                  if serial else None)

    proxy = f"{cycles:.1f}" if cycles is not None else "n/a (in workers)"
    print(f"{workload}: {e2e['trials_per_s']:.1f} trials/s wall-clock beside "
          f"{proxy} simulated cycles/trial (proxy); setup "
          f"{e2e['setup_s']:.3f} s; {len(untraced)} untraced + "
          f"{len(traced)} traced campaigns of "
          f"{WORKLOADS[workload]['trials']} trials; failed "
          f"{failed}/{attempted}")
    commit, src_sha = source_identity()
    append_history({"time": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "commit": commit, "src_sha": src_sha,
                    "workload": workload, "seed": seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "correct": correct, "attempted": attempted,
                    "failed": failed, "failed_frac": failed / attempted,
                    "metrics": metrics})
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
