"""Cost of one simulated cycle at default core parameters.

Campaign trials that no shortcut resolves spend their time in
``Power6Core.cycle``, so its cost bounds what the fast path can gain on
them.  This bench times golden reference runs — each testcase of the
CLI's default suite (``--suite-size 4``) run from reset to quiesce on
a fresh default-parameter core, the work a campaign's prepare step
does — and publishes the fastest of N passes as µs per simulated cycle.
Wall-clock on a shared host is not a gate; the number is published
beside the commit for trajectory.

The one gate is deterministic: the decoder's predecode cache
(:func:`repro.cpu.idu.predecode`) must serve at least 99% of decodes
once the first pass has seen the suite's instruction words.  A miss
there means the cache is keyed on something other than the word, or is
too small for a testcase's code.
"""

import time

from repro.avp.suite import make_suite
from repro.cpu import CoreParams, Power6Core
from repro.cpu.idu import predecode

from benchmarks.conftest import publish, scaled, write_bench_json

_SUITE_SIZE = 4  # the CLI's default --suite-size
_HIT_FLOOR = 0.99


def _reference_pass(suite) -> tuple[float, int]:
    """Run every testcase to quiesce; (wall seconds, cycles)."""
    seconds = 0.0
    cycles = 0
    for testcase in suite:
        core = Power6Core(CoreParams())
        core.load_program(testcase.program)
        start = time.perf_counter()
        cycles += core.run()
        seconds += time.perf_counter() - start
    return seconds, cycles


def _hit_ratio(before, after) -> float:
    hits = after.hits - before.hits
    misses = after.misses - before.misses
    return hits / (hits + misses)


def test_cycle_cost(benchmark):
    suite = make_suite(_SUITE_SIZE)
    passes = scaled(10, minimum=3)

    def run():
        predecode.cache_clear()
        cold = predecode.cache_info()
        first_seconds, cycles = _reference_pass(suite)
        warm = predecode.cache_info()
        best = first_seconds
        for _ in range(passes - 1):
            seconds, pass_cycles = _reference_pass(suite)
            assert pass_cycles == cycles
            best = min(best, seconds)
        return best, cycles, cold, warm, predecode.cache_info()

    best, cycles, cold, warm, final = benchmark.pedantic(
        run, rounds=1, iterations=1)
    us_per_cycle = 1e6 * best / cycles
    first_pass_ratio = _hit_ratio(cold, warm)
    hit_ratio = _hit_ratio(warm, final)

    lines = [
        "Simulated cycle cost (golden reference runs, default CoreParams)",
        f"  testcases:                   {_SUITE_SIZE}",
        f"  cycles per pass:             {cycles}",
        f"  passes (fastest kept):       {passes}",
        f"  fastest pass:                {best:8.3f} s",
        f"  us per simulated cycle:      {us_per_cycle:8.2f}",
        f"  predecode hit ratio:         {hit_ratio:8.4f}"
        f"  (first pass {first_pass_ratio:.4f})",
        f"  distinct words cached:       {final.currsize}",
        f"  (gate: hit ratio >= {_HIT_FLOOR} after the first pass;",
        "   the time is published, not gated)",
    ]
    publish("cycle", "\n".join(lines))
    write_bench_json(
        "cycle", "predecode_hit_ratio", round(hit_ratio, 4), _HIT_FLOOR,
        hit_ratio >= _HIT_FLOOR,
        detail={"suite_size": _SUITE_SIZE, "passes": passes,
                "cycles_per_pass": cycles,
                "fastest_pass_seconds": round(best, 4),
                "us_per_cycle": round(us_per_cycle, 2),
                "first_pass_hit_ratio": round(first_pass_ratio, 4),
                "cache_words": final.currsize,
                "cache_maxsize": final.maxsize})

    assert hit_ratio >= _HIT_FLOOR, (
        f"predecode hit ratio {hit_ratio:.4f} after the first pass is "
        f"below {_HIT_FLOOR}")
