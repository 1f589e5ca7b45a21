"""Bit-plane backend speedup — waves, peels and lag-shifted rejoins.

PR 9's bit-plane backend claims a >=5x reduction in *campaign* cycles
simulated per trial over the PR-4 fast path on the seed campaign, while
staying bit-identical to it (and the fast path is bit-identical to the
slow path by its own suite).  This bench runs the same mini-campaign
both ways on prepared machines, compares campaign-only cycle deltas
(both sides prepare identically-sized golden instrumentation; the
bit-plane side additionally re-runs each golden once to compile its
schedule, which is amortized across every campaign that reuses the
cached schedule), checks record equality, and publishes
``benchmarks/results/BENCH_bitplane.json``.

The 5x floor divides a fixed anchor, not the live fast path:
``_FASTPATH_ANCHOR_CYCLES`` is the fast path's campaign cycles on this
campaign before it resolved never-touched flips at the injection point
(12326), so the gate still bounds bit-plane campaign cycles at 2465
(12326 / 5) now that the fast path itself simulates fewer.  The ratio
to the live fast path is published beside it.

Beside the cycles floor sits a wall-clock gate: bit-plane campaign
trials/s must reach 1.5x the fast path's.  A cycles proxy alone cannot
see host-side costs such as per-cycle state digests, so both backends
run ``_ROUNDS`` times, interleaved, and each side keeps its fastest run.

The trial count is pinned, not ``scaled()``: the speedup is a property
of the seed campaign's lane-fate mix (how many lanes converge in-plane,
peel, rejoin with lag), and shrinking or growing the sample changes the
mix being measured, not the measurement's cost-accuracy trade-off.
"""

import random
import time

from repro.cpu import CoreParams
from repro.sfi import CampaignConfig, SfiExperiment
from repro.sfi.sampling import random_sample

from benchmarks.conftest import publish, write_bench_json

_SEED = 2008
_TRIALS = 120
_PARAMS = CoreParams(scale=0.15, icache_lines=32, dcache_lines=32)
_ROUNDS = 3
_WALL_FLOOR = 1.5
_CYCLES_FLOOR = 5.0
# Fast-path campaign cycles of this pinned campaign as recorded before
# the at-injection masked exit (BENCH_bitplane.json, fastpath side).
_FASTPATH_ANCHOR_CYCLES = 12326


def _campaign(backend: str):
    config = CampaignConfig(suite_size=2, suite_seed=99,
                            core_params=_PARAMS, backend=backend)
    experiment = SfiExperiment(config)
    sites = random_sample(experiment.latch_map, _TRIALS,
                          random.Random(_SEED ^ 0x5F1))
    prepared = experiment.emulator.stats.cycles_run
    start = time.perf_counter()
    result = experiment.run_campaign(sites, seed=_SEED)
    wall = time.perf_counter() - start
    campaign_cycles = experiment.emulator.stats.cycles_run - prepared
    return result, campaign_cycles, wall


def _interleaved_min() -> dict:
    """Fastest of ``_ROUNDS`` interleaved runs per backend."""
    best: dict = {}
    for _ in range(_ROUNDS):
        for backend in ("scalar", "bitplane"):
            run = _campaign(backend)
            if backend not in best or run[2] < best[backend][2]:
                best[backend] = run
    return best


def _side(campaign_cycles: int, wall: float) -> dict:
    return {
        "wall_seconds": round(wall, 4),
        "trials_per_second": round(_TRIALS / wall, 2),
        "campaign_cycles": campaign_cycles,
        "cycles_per_trial": round(campaign_cycles / _TRIALS, 1),
    }


def test_bitplane_speedup(benchmark):
    best = benchmark.pedantic(_interleaved_min, rounds=1, iterations=1)
    fast_result, fast_cycles, fast_wall = best["scalar"]
    bp_result, bp_cycles, bp_wall = best["bitplane"]

    fast = _side(fast_cycles, fast_wall)
    bitplane = _side(bp_cycles, bp_wall)
    cycles_speedup = _FASTPATH_ANCHOR_CYCLES / bp_cycles
    wall_speedup = fast_wall / bp_wall
    detail = {
        "workload": "AVP suite (Table-1 mix)",
        "trials": _TRIALS,
        "suite_size": 2,
        "fastpath": fast,
        "bitplane": bitplane,
        "fastpath_anchor_cycles": _FASTPATH_ANCHOR_CYCLES,
        "speedup_cycles": round(cycles_speedup, 2),
        "speedup_cycles_live": round(fast_cycles / bp_cycles, 2),
        "speedup_wall": round(wall_speedup, 2),
        "wall_floor": _WALL_FLOOR,
        "wall_timing": f"min of {_ROUNDS}, interleaved",
        "records_bit_identical": fast_result.records == bp_result.records,
    }
    write_bench_json(
        "bitplane", "speedup_cycles", detail["speedup_cycles"],
        _CYCLES_FLOOR,
        cycles_speedup >= _CYCLES_FLOOR and wall_speedup >= _WALL_FLOOR
        and detail["records_bit_identical"],
        detail=detail)

    lines = [
        "Bit-plane backend speedup (waves + peels + lag-shifted rejoins)",
        f"  trials:                    {_TRIALS}  (AVP suite, Table-1 mix,"
        " pinned)",
        f"  fast-path cycles/trial:    {fast['cycles_per_trial']:10.1f}"
        f"   ({fast['trials_per_second']:.1f} trials/s)",
        f"  bit-plane cycles/trial:    {bitplane['cycles_per_trial']:10.1f}"
        f"   ({bitplane['trials_per_second']:.1f} trials/s)",
        f"  campaign-cycles speedup:   {cycles_speedup:10.2f} x"
        f"   (floor: {_CYCLES_FLOOR:g}x over {_FASTPATH_ANCHOR_CYCLES}"
        " anchored fast-path cycles)",
        f"  vs the live fast path:     "
        f"{detail['speedup_cycles_live']:10.2f} x",
        f"  wall-clock speedup:        {wall_speedup:10.2f} x"
        f"   (floor: {_WALL_FLOOR}x; min of {_ROUNDS}, interleaved)",
        f"  records bit-identical:     {detail['records_bit_identical']}",
    ]
    publish("bitplane", "\n".join(lines))

    # The claim, stated four ways: same answers, strictly fewer
    # campaign cycles, at least the acceptance-floor reduction, and a
    # host wall-clock gain that survives per-cycle host costs.
    assert fast_result.records == bp_result.records
    assert bp_cycles < fast_cycles
    assert cycles_speedup >= _CYCLES_FLOOR, \
        f"bit-plane only {cycles_speedup:.2f}x below the " \
        f"{_CYCLES_FLOOR:g}x floor"
    assert wall_speedup >= _WALL_FLOOR, \
        f"bit-plane trials/s only {wall_speedup:.2f}x the fast path's, " \
        f"below the {_WALL_FLOOR}x wall-clock floor"
