"""One campaign process, as a CLI user runs it.

Usage: ``python3 child.py SPEC_JSON OUT_JSON`` with ``src`` on
``PYTHONPATH``.  The spec names the engine (backend, fast path, worker
count), the plans to run and whether to trace.  The child builds the
experiment (timed as set-up), runs each plan through the public API the
way ``repro.cli``'s ``campaign`` command does (timed as campaign
wall-clock), and writes the timings, the arrival time and digest of
every record and, when traced, the per-layer summary to ``OUT_JSON``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from random import Random

SITE_SEED_MASK = 0x5F1  # the CLI's site stream: Random(seed ^ 0x5F1)


def record_digest(record) -> str:
    """SHA-256 of every field of an ``InjectionRecord``, trace included."""
    payload = [record.site_index, record.site_name, record.unit,
               record.kind.value, record.ring, record.testcase_seed,
               record.inject_cycle, record.outcome.value,
               [[event.cycle, event.kind.value, event.detail]
                for event in record.trace]]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def make_config(spec: dict):
    from repro.sfi.campaign import CampaignConfig
    return CampaignConfig(suite_size=spec["suite_size"],
                          backend=spec["backend"],
                          fastpath=spec["fastpath"])


def plan_sites(latch_map, spec: dict, seed: int) -> list[int]:
    """The CLI's site list for ``seed``, cut to the spec's trial count
    (sampling is with replacement, so a prefix is a prefix of the plan)."""
    from repro.sfi.sampling import random_sample
    sites = random_sample(latch_map, spec["sites"],
                          Random(seed ^ SITE_SEED_MASK))
    return sites[:spec["trials"]]


class _Delivery:
    """Record sink: arrival time and digest of every delivered record."""

    def __init__(self, recorder) -> None:
        self.recorder = recorder
        self.times: list[float] = []
        self.digests: dict[int, str] = {}

    def __call__(self, position: int, record) -> None:
        self.times.append(time.perf_counter())
        self.digests[position] = record_digest(record)
        if self.recorder is not None:
            self.recorder.trial += 1


def run_serial(spec: dict, recorder) -> list[dict]:
    from repro.sfi.campaign import SfiExperiment, plan_injections
    started = time.perf_counter()
    experiment = SfiExperiment(make_config(spec))
    setup_s = time.perf_counter() - started
    results = []
    for job in spec["plans"]:
        exits: dict[str, int] = {}
        if recorder is not None:
            def note_exit(position, payload, exits=exits):
                kind = payload.get("exit", "none")
                exits[kind] = exits.get(kind, 0) + 1
            experiment.fastpath_hook = note_exit
        sites = plan_sites(experiment.latch_map, spec, job["seed"])
        delivery = _Delivery(recorder)
        cycles_before = experiment.emulator.stats.cycles_run
        if job["positions"] is None:
            planned = list(range(len(sites)))
            begin = time.perf_counter()
            experiment.run_campaign(sites, seed=job["seed"],
                                    record_hook=delivery)
        else:
            # A check campaign re-runs chosen positions of the plan; plan
            # items are self-contained, so a subset yields the same records.
            planned = job["positions"]
            plan = plan_injections(sites, len(experiment.suite))
            begin = time.perf_counter()
            experiment.run_plan([plan[position] for position in planned],
                                seed=job["seed"], record_hook=delivery)
        campaign_s = time.perf_counter() - begin
        results.append({
            "seed": job["seed"], "setup_s": setup_s,
            "campaign_s": campaign_s, "begin": begin,
            "planned": planned,
            "times": delivery.times, "digests": delivery.digests,
            "cycles": experiment.emulator.stats.cycles_run - cycles_before,
            "exits": exits})
    return results


def run_pool(spec: dict, recorder) -> list[dict]:
    from repro.sfi.campaign import SfiExperiment
    from repro.sfi.parallel import run_parallel_campaign
    from repro.sfi.supervisor import CampaignProgress

    (job,) = spec["plans"]
    config = make_config(spec)
    started = time.perf_counter()
    probe = SfiExperiment(config)
    setup_s = time.perf_counter() - started
    sites = plan_sites(probe.latch_map, spec, job["seed"])
    delivery = _Delivery(recorder)
    events = {"retries": 0, "splits": 0, "degrades": 0}

    class Progress(CampaignProgress):
        def on_record(self, position, record):
            delivery(position, record)

        def on_shard_retry(self, shard_id, attempt, reason, delay):
            events["retries"] += 1

        def on_shard_split(self, shard_id, remaining):
            events["splits"] += 1

        def on_degrade(self, reason):
            events["degrades"] += 1

    journal = os.path.join(spec["scratch"], f"journal-{os.getpid()}.jsonl")
    options = {}
    if recorder is not None:
        from spans import SPAN_DIR_ENV, traced_shard
        os.environ[SPAN_DIR_ENV] = spec["span_dir"]
        options["runner"] = traced_shard
    begin = time.perf_counter()
    try:
        # The CLI's supervised path: probe-derived population and
        # reference cycles, default timeout and retry policy.
        run_parallel_campaign(
            config, sites, seed=job["seed"], workers=spec["workers"],
            population_bits=len(probe.latch_map), journal=journal,
            shard_timeout=None, max_retries=2,
            reference_cycles=[r.cycles for r in probe.references],
            progress=Progress(), **options)
        campaign_s = time.perf_counter() - begin
        journal_bytes = os.path.getsize(journal)
    finally:
        if os.path.exists(journal):
            os.remove(journal)
    return [{"seed": job["seed"], "setup_s": setup_s,
             "campaign_s": campaign_s, "begin": begin,
             "planned": list(range(len(sites))),
             "times": delivery.times, "digests": delivery.digests,
             "cycles": None, "supervisor": events,
             "journal_bytes": journal_bytes}]


def main(argv: list[str]) -> int:
    spec_path, out_path = argv
    with open(spec_path) as handle:
        spec = json.load(handle)
    import repro
    if not os.path.abspath(repro.__file__).startswith(spec["src"] + os.sep):
        print(f"repro imported from {repro.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 2
    recorder = None
    if spec["trace"]:
        from spans import SpanRecorder
        recorder = SpanRecorder()
        recorder.install()
    runner = run_pool if spec["workers"] > 1 else run_serial
    results = runner(spec, recorder)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        recorder.uninstall()
        results[0]["layers"] = recorder.summary()
        recorder.write(os.path.join(spec["span_dir"],
                                    f"parent-{os.getpid()}.json"),
                       begin=results[0]["begin"])
    with open(out_path, "w") as handle:
        json.dump({"rss_kb": rss_kb, "plans": results}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
