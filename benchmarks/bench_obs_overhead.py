"""Observability overhead — instrumentation must be ~free.

The telemetry subsystem (repro.obs) sits on the campaign hot path:
per-injection counter increments, a latency histogram observation and a
sampled core profiling hook every ``profile_interval`` cycles.  The
design budget is <3% wall-clock overhead versus an uninstrumented
campaign.

Scheduler noise on a shared host is larger than that budget, and it
comes in bursts of seconds: back-to-back blocks of bare then
instrumented campaigns, each reduced to its fastest run, measured
anywhere from -18% to +17% between two identical machines on a shared
2-CPU x86 host.  So the sides are interleaved: every round runs one
campaign on each of three prepared machines — two bare, one
instrumented — with the order rotated each round so every side runs
first, second and third equally often.  The overhead is the median over
rounds of the instrumented campaign's excess over the same round's bare
campaign, so a burst that slows one round moves one sample, not the
estimate.  Each campaign starts after a full garbage collection.  The
same statistic between the two bare machines is the bench's stated
noise floor, published beside it.
"""

import gc
import statistics
import time

from repro.cpu import CoreParams
from repro.obs import MetricsRegistry
from repro.sfi import CampaignConfig, SfiExperiment
from repro.sfi.sampling import random_sample

from benchmarks.conftest import publish, scaled, write_bench_json

import random

#: Rounds per bench; a multiple of three so each side takes every
#: position in the rotation equally often.
_REPEATS = 15


def _interleaved_seconds(experiments, sites, seed) -> list[list[float]]:
    """Campaign wall-clock of each experiment in every rotated round."""
    seconds: list[list[float]] = [[] for _ in experiments]
    for round_index in range(_REPEATS):
        for step in range(len(experiments)):
            side = (round_index + step) % len(experiments)
            # Every campaign starts from an empty collector: otherwise a
            # full collection of all three machines' heap, due to one
            # side's allocations, lands inside whichever campaign runs
            # next.
            gc.collect()
            start = time.perf_counter()
            experiments[side].run_campaign(sites, seed=seed)
            seconds[side].append(time.perf_counter() - start)
    return seconds


def _paired_excess(base: list[float], other: list[float]) -> float:
    """Median over rounds of ``other``'s excess over ``base``."""
    return statistics.median((b - a) / a for a, b in zip(base, other))


def test_obs_overhead_under_three_percent(benchmark):
    config = CampaignConfig(
        suite_size=2,
        core_params=CoreParams(scale=0.3, icache_lines=32, dcache_lines=32))
    flips = scaled(120, minimum=60)

    def run():
        bare_exp = SfiExperiment(config)
        bare_twin_exp = SfiExperiment(config)
        instrumented_exp = SfiExperiment(config,
                                         metrics=MetricsRegistry())
        sites = random_sample(bare_exp.latch_map, flips, random.Random(7))
        bare_runs, twin_runs, instrumented_runs = _interleaved_seconds(
            [bare_exp, bare_twin_exp, instrumented_exp], sites, seed=7)
        return bare_runs, twin_runs, instrumented_runs, instrumented_exp

    bare_runs, twin_runs, instrumented_runs, instrumented_exp = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = _paired_excess(bare_runs, instrumented_runs)
    noise_floor = _paired_excess(bare_runs, twin_runs)
    baseline, twin, instrumented = (
        min(bare_runs), min(twin_runs), min(instrumented_runs))

    registry = instrumented_exp.metrics
    series = sum(registry.get(name) is not None
                 for name in ("sfi_injections_total",
                              "sfi_injection_seconds",
                              "core_cycles_per_second"))
    lines = [
        "Observability overhead (instrumented vs bare campaign)",
        f"  flips per campaign:        {flips}",
        f"  rounds (rotated order):    {_REPEATS}",
        f"  bare campaign (fastest):   {baseline:8.3f} s",
        f"  bare twin     (fastest):   {twin:8.3f} s",
        f"  instrumented  (fastest):   {instrumented:8.3f} s",
        f"  overhead (median paired):  {100 * overhead:8.2f} %",
        f"  noise floor (bare twin):   {100 * noise_floor:8.2f} %",
        f"  metric families recorded:  {series}",
        "  (budget: <3% — counters, one histogram observation per",
        "   injection, and a sampled profiling hook every 2048 cycles;",
        "   the noise floor is the same comparison between two bare",
        "   machines)",
    ]
    publish("obs_overhead", "\n".join(lines))
    write_bench_json(
        "obs_overhead", "overhead_fraction", round(overhead, 4), 0.03,
        overhead < 0.03,
        detail={"flips": flips, "repeats": _REPEATS,
                "order": "interleaved, rotated each round",
                "estimator": "median over rounds of the paired excess",
                "bare_seconds": round(baseline, 4),
                "bare_twin_seconds": round(twin, 4),
                "instrumented_seconds": round(instrumented, 4),
                "noise_floor_fraction": round(noise_floor, 4),
                "metric_families": series})

    # Sanity: the instrumented run actually recorded its series.
    assert sum(registry.get("sfi_injections_total")
               .series().values()) == flips * _REPEATS
    assert registry.get("sfi_injection_seconds").count() == flips * _REPEATS
    assert overhead < 0.03, \
        f"instrumentation overhead {100 * overhead:.2f}% exceeds the 3% budget"
