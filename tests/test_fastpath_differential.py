"""Differential equivalence suite for the fast-path campaign layer.

The fast path (checkpoint ladder + golden-digest early exit, see
``repro/sfi/campaign.py``) claims to be *bit-identical* to the seed slow
path: same outcome, same inject cycle, same event trace, for every
(site, cycle, testcase, stride).  This suite enforces the claim over
randomized mini-campaigns whose slow-path outcomes span every class —
vanished, corrected, hang, checkstop and SDC — across ladder strides
K in {1, 7, 64, inf}.

Campaign plumbing and failing-seed reporting live in
``tests/difftools.py`` (shared with the bit-plane suite).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import MetricsRegistry
from repro.rtl.fault import InjectionMode
from repro.sfi import CampaignConfig, ClassifyOptions, SfiExperiment
from repro.sfi.outcomes import Outcome

from tests.difftools import (BASE_CONFIG, report_mismatches, run_campaign,
                             sample_sites)

pytestmark = pytest.mark.differential

#: name -> (config overrides, campaign seed, flips).  Seeds are chosen so
#: the slow-path outcomes of these mini-campaigns jointly cover every
#: outcome class (asserted below, so drift is loud).
CASES = {
    "toggle": (dict(), 4, 40),
    "sticky-checkstop": (dict(injection_mode=InjectionMode.STICKY,
                              sticky_cycles=64), 7, 60),
    "sticky-sdc": (dict(injection_mode=InjectionMode.STICKY,
                        sticky_cycles=64), 8, 60),
    "raw-hang": (dict(checker_mask=0,
                      classify_options=ClassifyOptions(
                          latent_as_vanished=True)), 1, 60),
}

#: Ladder strides under test; None is the K = inf case (no mid-execution
#: rungs: every injection falls back to the cycle-0 checkpoint while the
#: digest early exit stays active).
STRIDES = {"K1": 1, "K7": 7, "K64": 64, "Kinf": None}


def _campaign(case: str, *, fastpath: bool, ckpt_stride=64):
    overrides, seed, flips = CASES[case]
    return run_campaign(overrides, seed, flips, fastpath=fastpath,
                        ckpt_stride=ckpt_stride)


@pytest.fixture(scope="module")
def slow_records():
    """Slow-path reference records, computed once per case."""
    cache = {}

    def get(case: str):
        if case not in cache:
            cache[case] = _campaign(case, fastpath=False)[1].records
        return cache[case]

    return get


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("stride_name", sorted(STRIDES))
def test_fast_path_records_bit_identical(case, stride_name, slow_records):
    slow = slow_records(case)
    experiment, result = _campaign(case, fastpath=True,
                                   ckpt_stride=STRIDES[stride_name])
    mismatches = report_mismatches(f"{case}/{stride_name}", CASES[case][1],
                                   slow, result.records)
    assert not mismatches, \
        "fast path diverged from slow path:\n" + "\n".join(mismatches)
    assert len(slow) == len(result.records)


def test_cases_cover_every_outcome_class(slow_records):
    """The mini-campaigns exercise all five outcome destinies, so the
    bit-identical assertions above cover every classification path."""
    seen = {record.outcome
            for case in CASES for record in slow_records(case)}
    assert seen == set(Outcome)


def test_fast_path_simulates_fewer_cycles(slow_records):
    """The point of the ladder + early exits: strictly less engine time."""
    slow_exp, _ = _campaign("toggle", fastpath=False)
    fast_exp, _ = _campaign("toggle", fastpath=True)
    assert fast_exp.emulator.stats.cycles_run \
        < slow_exp.emulator.stats.cycles_run


def test_trace_ring_truncation_under_pressure(slow_records):
    """PR 2's 512-event ring bound, shrunk to 4: an early-exited trial
    splices the golden event tail through the same ring machinery a full
    drain records through, so truncation (which events survive, and the
    dropped count baked into the trace) is bit-identical."""
    overrides, seed, flips = CASES["toggle"]
    for fastpath in (False, True):
        config = CampaignConfig(**BASE_CONFIG, **overrides,
                                fastpath=fastpath, trace_max_events=4)
        experiment = SfiExperiment(config)
        sites = sample_sites(experiment, flips, seed)
        result = experiment.run_campaign(sites, seed)
        if not fastpath:
            slow = result.records
    assert [r.trace for r in slow] == [r.trace for r in result.records]
    assert slow == result.records
    assert all(len(r.trace) <= 4 for r in slow)


# --- The at-injection masked exit -------------------------------------
#
# A TOGGLE flip of a latch whose golden last touch is at or before the
# inject cycle is resolved without simulating (``run_one`` restores the
# golden final state and splices the INJECTION into the golden events).
# These cases drive ``run_one`` directly with (site, cycle) pairs taken
# from ``GoldenTrace.last_touch``, right at the exit's boundary, and
# compare every record against the slow path.


@pytest.fixture(scope="module")
def exit_pair():
    """A fast-path experiment and its slow-path oracle, one config."""
    return (SfiExperiment(CampaignConfig(**BASE_CONFIG)),
            SfiExperiment(CampaignConfig(**BASE_CONFIG, fastpath=False)))


def _first_sites(experiment) -> dict[int, int]:
    """Latch position -> the first site index on that latch."""
    position = {id(latch): i
                for i, latch in enumerate(experiment.core.all_latches())}
    sites: dict[int, int] = {}
    for site_index in range(len(experiment.latch_map)):
        latch = experiment.latch_map.site(site_index).latch
        sites.setdefault(position[id(latch)], site_index)
    return sites


def _touched(experiment, tc: int, count: int = 8) -> list[tuple[int, int]]:
    """``(site_index, last_touch)`` for ``count`` latches spread evenly
    over the golden run's last touches in ``[1, reference cycles)``,
    from the earliest to the latest (a latch the run uses to its end)."""
    sites = _first_sites(experiment)
    golden = experiment.goldens[tc]
    cycles = experiment.references[tc].cycles
    touched = sorted((last, position)
                     for position, last in golden.last_touch.items()
                     if 1 <= last < cycles and position in sites)
    picks = sorted({round(i * (len(touched) - 1) / max(1, count - 1))
                    for i in range(count)})
    return [(sites[touched[i][1]], touched[i][0]) for i in picks]


def _never_touched(experiment, tc: int, count: int = 4) -> list[int]:
    golden = experiment.goldens[tc]
    sites = _first_sites(experiment)
    return [sites[position] for position in sorted(sites)
            if position not in golden.last_touch][:count]


def _run(experiment, site_index: int, tc: int, cycle: int):
    """``run_one`` plus whether it took the at-injection exit: no rung
    restored and not one cycle simulated."""
    stats = experiment.emulator.stats
    restores = stats.ladder_hits + stats.ladder_misses
    cycles = stats.cycles_run
    record = experiment.run_one(site_index, tc, cycle)
    taken = stats.ladder_hits + stats.ladder_misses == restores
    if taken:
        assert stats.cycles_run == cycles
        assert experiment.last_fastpath == {
            "saved_cycles": experiment.goldens[tc].end_cycle,
            "exit": "masked"}
    return record, taken


def _check(fast, slow, cases, *, taken: bool) -> None:
    """Every ``(site, tc, cycle)`` case matches the slow path and takes
    (or does not take) the at-injection exit."""
    assert cases
    diverged, exits = [], []
    for site_index, tc, cycle in cases:
        record, took = _run(fast, site_index, tc, cycle)
        label = f"site={site_index} tc={tc} cycle={cycle}"
        if record != slow.run_one(site_index, tc, cycle):
            diverged.append(label)
        if took is not taken:
            exits.append(f"{label} exit taken={took}")
    assert not diverged, "records differ from the slow path: " \
        + ", ".join(diverged)
    assert not exits, ", ".join(exits)


def test_exit_at_last_touch_cycle(exit_pair):
    """``inject_cycle == last_touch``: the last access belongs to the
    step before the flip, so the exit is taken and exact."""
    fast, slow = exit_pair
    cases = [(site, tc, last) for tc in range(len(fast.suite))
             for site, last in _touched(fast, tc)]
    _check(fast, slow, cases, taken=True)


def test_no_exit_one_cycle_before_last_touch(exit_pair):
    """``inject_cycle == last_touch - 1``: golden still touches the
    latch after the flip, so the trial is simulated."""
    fast, slow = exit_pair
    cases = [(site, tc, last - 1) for tc in range(len(fast.suite))
             for site, last in _touched(fast, tc)]
    _check(fast, slow, cases, taken=False)


def test_exit_on_never_touched_latch(exit_pair):
    fast, slow = exit_pair
    cases = []
    for tc in range(len(fast.suite)):
        cycles = fast.references[tc].cycles
        for site in _never_touched(fast, tc):
            cases += [(site, tc, 0), (site, tc, cycles // 2),
                      (site, tc, cycles - 1)]
    _check(fast, slow, cases, taken=True)


def test_injection_after_last_digest_boundary(exit_pair):
    """Past the last golden digest the drain has nothing to compare
    against; the at-injection exit still applies to frozen flips, and
    every other flip drains to quiesce."""
    fast, slow = exit_pair
    frozen, live = [], []
    sites = _first_sites(fast)
    for tc in range(len(fast.suite)):
        golden = fast.goldens[tc]
        cycle = max(golden.digests) + 1
        assert cycle < fast.references[tc].cycles
        for position, site in sorted(sites.items()):
            last = golden.last_touch.get(position, -1)
            bucket = frozen if last <= cycle else live
            bucket.append((site, tc, cycle))
    _check(fast, slow, frozen[::max(1, len(frozen) // 6)][:6], taken=True)
    _check(fast, slow, live[::max(1, len(live) // 6)][:6], taken=False)


@pytest.mark.parametrize("max_events", [4, 1])
def test_exit_through_bounded_ring(max_events):
    """The spliced events go through the same bounded ring a drain
    records through; at one event the INJECTION itself is dropped."""
    config = dict(BASE_CONFIG, trace_max_events=max_events)
    fast = SfiExperiment(CampaignConfig(**config))
    slow = SfiExperiment(CampaignConfig(**config, fastpath=False))
    cases = [(site, tc, last) for tc in range(len(fast.suite))
             for site, last in _touched(fast, tc, count=3)]
    _check(fast, slow, cases, taken=True)
    assert all(len(slow.run_one(*case).trace) <= max_events
               for case in cases)


def test_sticky_mode_never_takes_exit():
    """A sticky fault is re-asserted for ``sticky_cycles``: it is not a
    single frozen flip, so it is always simulated."""
    overrides = dict(injection_mode=InjectionMode.STICKY, sticky_cycles=64)
    fast = SfiExperiment(CampaignConfig(**BASE_CONFIG, **overrides))
    slow = SfiExperiment(CampaignConfig(**BASE_CONFIG, **overrides,
                                        fastpath=False))
    cases = [(site, tc, last) for tc in range(len(fast.suite))
             for site, last in _touched(fast, tc, count=4)]
    _check(fast, slow, cases, taken=False)


def test_unusable_golden_never_takes_exit(exit_pair):
    """A golden run that dropped events cannot supply the event tail."""
    fast, slow = exit_pair
    model = dataclasses.replace(fast.model, goldens=tuple(
        dataclasses.replace(golden, usable=False)
        for golden in fast.model.goldens))
    unusable = SfiExperiment(CampaignConfig(**BASE_CONFIG), model=model)
    cases = [(site, tc, last) for tc in range(len(fast.suite))
             for site, last in _touched(fast, tc, count=4)]
    _check(unusable, slow, cases, taken=False)


def test_exit_counters(exit_pair):
    """The exit counts as ``sfi_early_exits_total{reason="masked"}``
    with the whole golden run saved, and as neither a ladder hit nor a
    miss; a simulated trial still counts its restore."""
    fast, _ = exit_pair
    registry = MetricsRegistry()
    experiment = SfiExperiment(CampaignConfig(**BASE_CONFIG),
                               model=fast.model, metrics=registry)
    (site, last), = _touched(fast, 0, count=1)
    experiment.run_one(site, 0, last)
    assert registry.get("sfi_early_exits_total").value(reason="masked") == 1
    assert registry.get("sfi_ladder_hits_total").value() == 0
    assert registry.get("sfi_ladder_misses_total").value() == 0
    saved = registry.get("sfi_fastpath_saved_cycles")
    assert saved.count() == 1
    assert saved.sum() == fast.goldens[0].end_cycle
    experiment.run_one(site, 0, last - 1)
    assert (registry.get("sfi_ladder_hits_total").value()
            + registry.get("sfi_ladder_misses_total").value()) == 1
