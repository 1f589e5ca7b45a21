"""Snapshot/restore aliasing and digest-sensitivity suite.

The fast path leans on two invariants of the core state machinery:

* ``CoreSnapshot`` is a *deep* capture — mutating the live core after a
  snapshot (or a ladder rung) must never reach into the stored copy, and
  restoring must round-trip every mutable field exactly.
* ``state_digest()`` changes iff machine state changed: it is sensitive
  to every architectural field (latch values *and* parity shadows, SRAM
  arrays, ECC check bits, memory, cycle/halt bookkeeping) and is
  deliberately insensitive to the event log, which is observational
  (the injected run carries an INJECTION event the golden run lacks).

Each mutation below flips exactly one mutable field class; the suite
asserts digest sensitivity per field and full restore round-trips, then
drives the same checks through the ``AwanEmulator`` checkpoint ladder to
prove rungs don't alias the live core or each other.
"""

from __future__ import annotations

import pytest

from repro.cpu.events import EventKind
from repro.emulator.awan import AwanEmulator

# ----------------------------------------------------------------------
# One mutation per mutable field class.  Each returns nothing; the
# digest/restore assertions around them do the checking.

def _mut_latch_value(core):
    core.rut.cmt_res.value ^= 1


def _mut_latch_parity(core):
    # Parity shadow only — the value stays put, the digest must not.
    core.rut.cmt_res.par ^= 1


def _mut_store_queue_valid(core):
    core.lsu.sq_valid.value ^= 1


def _mut_store_queue_bank(core):
    core.lsu.sq_addr[0].value ^= 1


def _mut_fir(core):
    core.pervasive.fir_rec.value ^= 1


def _mut_icache_sram(core):
    core.ifu.icache.array.data[0] ^= 1


def _mut_icache_sram_parity(core):
    core.ifu.icache.array.par[0] ^= 1


def _mut_dcache_sram(core):
    core.lsu.dcache.array.data[3] ^= 1


def _mut_ckpt_ecc_data(core):
    core.rut.ckpt.data[0] ^= 1


def _mut_ckpt_ecc_check(core):
    core.rut.ckpt.check[0] ^= 1


def _mut_memory(core):
    word = core.memory.load_word(64)
    core.memory.store_word(64, (word ^ 0xDEADBEEF) or 1)


def _mut_cycles(core):
    core.cycles += 1


def _mut_halted(core):
    core.halted = not core.halted


def _mut_committed(core):
    core.committed += 1


MUTATIONS = {
    "latch-value": _mut_latch_value,
    "latch-parity": _mut_latch_parity,
    "store-queue-valid": _mut_store_queue_valid,
    "store-queue-bank": _mut_store_queue_bank,
    "fir": _mut_fir,
    "icache-sram": _mut_icache_sram,
    "icache-sram-parity": _mut_icache_sram_parity,
    "dcache-sram": _mut_dcache_sram,
    "ckpt-ecc-data": _mut_ckpt_ecc_data,
    "ckpt-ecc-check": _mut_ckpt_ecc_check,
    "memory": _mut_memory,
    "cycles": _mut_cycles,
    "halted": _mut_halted,
    "committed": _mut_committed,
}


@pytest.fixture()
def running_core(core, testcase):
    """A core a few hundred cycles into a real testcase, so caches, the
    store queue and the event log hold non-reset state."""
    core.load_program(testcase.program)
    for _ in range(300):
        core.cycle()
    assert not core.halted
    return core


# ----------------------------------------------------------------------
# Digest sensitivity: changes iff state changed.

def test_digest_stable_without_mutation(running_core):
    assert running_core.state_digest() == running_core.state_digest()


@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_digest_changes_for_each_architectural_mutation(running_core, field):
    before = running_core.state_digest()
    MUTATIONS[field](running_core)
    assert running_core.state_digest() != before, \
        f"digest blind to {field} mutation"


def test_digest_ignores_event_log(running_core):
    """Documented exclusion: the log is observational, not architectural."""
    before = running_core.state_digest()
    running_core.event_log.record(running_core.cycles,
                                  EventKind.INJECTION, "digest-probe")
    assert running_core.state_digest() == before


# ----------------------------------------------------------------------
# Digest plans: the kept-latch list is resolved once per exclusion set
# and cached on the core; memory and arrays hash in place.

def test_empty_exclusion_is_the_full_digest(running_core):
    core = running_core
    assert core.state_digest(exclude=frozenset()) == core.state_digest()
    assert core.state_digest(exclude=frozenset(), include_cycle=False) \
        == core.state_digest(include_cycle=False)
    assert core.latch_key(frozenset()) == core.latch_key()


def test_cached_plan_sees_later_writes_to_kept_latches(running_core):
    core = running_core
    mask = frozenset({core.all_latches().index(core.rut.cmt_res)})
    before = core.state_digest(exclude=mask, include_cycle=False)
    key = core.latch_key(mask)
    assert core.kept_latches(mask) is core.kept_latches(mask)
    core.pervasive.fir_rec.value ^= 1
    assert core.state_digest(exclude=mask, include_cycle=False) != before
    assert core.latch_key(mask) != key
    core.pervasive.fir_rec.value ^= 1
    assert core.state_digest(exclude=mask, include_cycle=False) == before
    assert core.latch_key(mask) == key


def test_equal_masks_from_distinct_objects_digest_alike(running_core):
    core = running_core
    latches = core.all_latches()
    indices = [latches.index(core.rut.cmt_res),
               latches.index(core.pervasive.fir_rec)]
    first = frozenset(indices)
    second = frozenset(reversed(indices))
    assert first is not second
    digest = core.state_digest(exclude=first, include_cycle=False)
    core.rut.cmt_res.value ^= 1
    assert core.state_digest(exclude=second, include_cycle=False) == digest
    assert core.latch_key(second) == core.latch_key(first)
    assert core.state_digest(exclude=first) != core.state_digest()


def test_stored_zero_word_digests_like_an_absent_word(running_core):
    core = running_core
    addr = 4 * (max(core.memory.snapshot()) + 16)
    before = core.state_digest()
    words = len(core.memory)
    core.memory.store_word(addr, 0)
    assert len(core.memory) == words + 1
    assert core.state_digest() == before
    core.memory.store_word(addr, 1)
    assert core.state_digest() != before


@pytest.mark.parametrize("field", ["icache-sram-parity", "dcache-sram",
                                   "ckpt-ecc-check", "memory"])
def test_masked_lagfree_digest_sees_memory_and_arrays(running_core, field):
    """Memory and arrays hash beside the kept-latch plan: one SRAM
    parity bit or one ECC check bit must move the drain's digest."""
    core = running_core
    mask = frozenset(range(0, len(core.all_latches()), 2))
    before = core.state_digest(exclude=mask, include_cycle=False)
    MUTATIONS[field](core)
    assert core.state_digest(exclude=mask, include_cycle=False) != before


# ----------------------------------------------------------------------
# Snapshot round-trip and aliasing.

@pytest.mark.parametrize("field", sorted(MUTATIONS))
def test_restore_round_trips_each_mutation(running_core, field):
    reference = running_core.state_digest()
    snap = running_core.snapshot()
    MUTATIONS[field](running_core)
    running_core.restore(snap)
    assert running_core.state_digest() == reference


def test_snapshot_is_not_aliased_to_live_state(running_core):
    """Mutating every field class after a snapshot leaves the stored
    copy intact — restore still reproduces the original digest."""
    reference = running_core.state_digest()
    snap = running_core.snapshot()
    for mutate in MUTATIONS.values():
        mutate(running_core)
    running_core.event_log.record(running_core.cycles,
                                  EventKind.CHECKSTOP, "alias-probe")
    assert running_core.state_digest() != reference
    running_core.restore(snap)
    assert running_core.state_digest() == reference
    # And a second trip through the same snapshot still works: restore
    # must not have handed the snapshot's internals to the live core.
    for mutate in MUTATIONS.values():
        mutate(running_core)
    running_core.restore(snap)
    assert running_core.state_digest() == reference


def test_restore_round_trips_event_log(running_core):
    snap = running_core.snapshot()
    events_before = running_core.event_log.snapshot()
    running_core.event_log.record(running_core.cycles,
                                  EventKind.HANG_DETECTED, "transient")
    running_core.restore(snap)
    assert running_core.event_log.snapshot() == events_before


# ----------------------------------------------------------------------
# Ladder rungs: no aliasing between rungs or with the live core.

def test_ladder_rungs_do_not_alias(running_core):
    emulator = AwanEmulator(running_core, max_rungs=8)
    emulator.checkpoint("tc")
    digests = {}
    for _ in range(3):
        emulator.save_rung("tc")
        digests[running_core.cycles] = running_core.state_digest()
        for _ in range(50):
            running_core.cycle()
    assert emulator.rung_count("tc") == 3

    # Trash the live core: stored rungs must be unaffected.
    for mutate in MUTATIONS.values():
        mutate(running_core)
    rungs = sorted(digests)
    for cycle in rungs:
        assert emulator.restore_nearest("tc", cycle) == cycle
        assert running_core.state_digest() == digests[cycle]

    # Restoring one rung and corrupting the core must not leak into a
    # *different* rung (or back into the one just restored).
    assert emulator.restore_nearest("tc", rungs[1]) == rungs[1]
    for mutate in MUTATIONS.values():
        mutate(running_core)
    assert emulator.restore_nearest("tc", rungs[0]) == rungs[0]
    assert running_core.state_digest() == digests[rungs[0]]
    assert emulator.restore_nearest("tc", rungs[1]) == rungs[1]
    assert running_core.state_digest() == digests[rungs[1]]


def test_lagfree_digest_ignores_exactly_the_cycle_counter(running_core):
    """``include_cycle=False`` is the lag-shifted rejoin's digest: blind
    to the cycle counter (a recovery-delayed trial matches an earlier
    golden cycle) and to nothing else."""
    full = running_core.state_digest()
    lagfree = running_core.state_digest(include_cycle=False)
    running_core.cycles += 1
    assert running_core.state_digest() != full
    assert running_core.state_digest(include_cycle=False) == lagfree


@pytest.mark.parametrize("field", sorted(set(MUTATIONS) - {"cycles"}))
def test_lagfree_digest_sensitive_to_every_other_field(running_core, field):
    before = running_core.state_digest(include_cycle=False)
    MUTATIONS[field](running_core)
    assert running_core.state_digest(include_cycle=False) != before, \
        f"lag-free digest blind to {field} mutation"


def test_exclusion_composes_with_lagfree_digest(running_core):
    """The drain's actual compare: mask exclusion and cycle exclusion
    are orthogonal — together they ignore the masked latch and the
    cycle counter, and still see everything else."""
    core = running_core
    index = core.all_latches().index(core.rut.cmt_res)
    mask = frozenset({index})
    before = core.state_digest(exclude=mask, include_cycle=False)
    core.rut.cmt_res.value ^= 1
    core.cycles += 1
    assert core.state_digest(exclude=mask, include_cycle=False) == before
    core.pervasive.fir_rec.value ^= 1
    assert core.state_digest(exclude=mask, include_cycle=False) != before


# ----------------------------------------------------------------------
# Bit-plane state: wave reconstructions restore golden snapshots and
# splice event tails dozens of times per campaign — none of it may leak
# back into the stored goldens or the compiled schedule.

def test_wave_reconstruction_does_not_alias_golden_state():
    """Re-running a bit-plane campaign on the same prepared experiment
    must reproduce every record — the golden finals, event tails and
    compiled schedules it reconstructs from are never mutated."""
    import copy

    from tests.difftools import run_campaign

    experiment, result = run_campaign({}, 4, 40, backend="bitplane")
    finals = [copy.deepcopy(golden.final) for golden in experiment.goldens]
    tails = [tuple(golden.events) for golden in experiment.goldens]
    tables = [copy.deepcopy(_schedule_tables(schedule))
              for schedule in experiment.schedules]
    sites = [record.site_index for record in result.records]
    again = experiment.run_campaign(sites, 4)
    assert again.records == result.records
    for golden, final, tail in zip(experiment.goldens, finals, tails):
        assert golden.final == final
        assert tuple(golden.events) == tail
    assert [_schedule_tables(s) for s in experiment.schedules] == tables


def _schedule_tables(schedule) -> dict:
    """Every table a compiled schedule answers lookups from."""
    return {name: getattr(schedule, name) for name in (
        "marks", "initial", "mask_indices",
        "vr", "vw_seq", "vw_cyc", "vw_val",
        "pr", "pw_seq", "pw_cyc", "pw_val",
        "br", "bw_seq", "bw_cyc", "bw_val")}


@pytest.fixture(scope="module")
def bitplane_experiment():
    from tests.difftools import BASE_CONFIG

    from repro.sfi import CampaignConfig, SfiExperiment

    return SfiExperiment(CampaignConfig(**BASE_CONFIG, backend="bitplane"))


def test_every_golden_cycle_passes_the_lag_prefilter(bitplane_experiment):
    """The drain's two-level lookup: at every golden cycle the cheap
    latch key is in the trail's key set and the full lookup finds the
    first golden cycle with that state, never a later one — also when
    the cycle counter is shifted, as in a recovery-delayed trial."""
    experiment = bitplane_experiment
    core = experiment.core
    emulator = experiment.emulator
    for index, golden in enumerate(experiment.goldens):
        trail = experiment._bp_trails[index]
        emulator.reload(experiment._ckpt_name(index))
        checked = 0
        while core.cycles < golden.end_cycle:
            assert core.latch_key(trail.mask) in trail.keys, core.cycles
            rejoin = trail.rejoin(core)
            assert rejoin is not None and rejoin <= core.cycles, core.cycles
            core.cycles += 7
            assert trail.rejoin(core) == rejoin, core.cycles
            core.cycles -= 7
            checked += 1
            emulator.clock(1)
        assert checked == golden.end_cycle
        assert len(trail.keys) <= len(trail.first) <= checked


@pytest.mark.parametrize("where", ["memory", "dcache", "ckpt"])
def test_memory_or_array_divergence_passes_key_misses_digest(
        bitplane_experiment, where):
    """A state equal to golden in every latch but not in memory or an
    array passes the key check, then the digest rejects it: the
    prefilter only ever skips digests that would have missed."""
    experiment = bitplane_experiment
    core = experiment.core
    trail = experiment._bp_trails[0]
    experiment.emulator.reload(experiment._ckpt_name(0))
    experiment.emulator.clock(experiment.goldens[0].end_cycle // 2)
    assert trail.rejoin(core) is not None
    if where == "memory":
        addr = 4 * max(core.memory.snapshot())
        core.memory.store_word(addr, core.memory.load_word(addr) ^ 0x5A5A5A5A)
    elif where == "dcache":
        core.lsu.dcache.array.data[3] ^= 0x80000000
    else:
        core.rut.ckpt.check[2] ^= 0x40
    assert core.latch_key(trail.mask) in trail.keys
    assert core.state_digest(exclude=trail.mask, include_cycle=False) \
        not in trail.first
    assert trail.rejoin(core) is None


def _random_lanes(experiment, count: int, seed: int) -> list:
    """``count`` wave descriptors over random sites and inject cycles of
    testcase 0."""
    import random

    from tests.difftools import sample_sites

    rng = random.Random(seed)
    cycles = experiment.references[0].cycles
    lanes = []
    for site_index in sample_sites(experiment, count, seed):
        site = experiment.latch_map.site(site_index)
        lanes.append((experiment._latch_index[id(site.latch)], site.bit,
                      site.is_parity_bit, rng.randrange(cycles)))
    return lanes


def test_wave_lanes_resolve_independently(bitplane_experiment):
    """A lane's fate is its own schedule lookup: a wave equals the
    concatenation of its single-lane waves, in any lane order, and has
    no width limit (150 lanes here)."""
    import random

    schedule = bitplane_experiment.schedules[0]
    lanes = _random_lanes(bitplane_experiment, 150, seed=13)
    fates = schedule.resolve_wave(lanes)
    assert fates == [schedule.resolve_wave([lane])[0] for lane in lanes]
    assert {fate for fate, _ in fates} == {"peel", "converge", "survive"}
    order = list(range(len(lanes)))
    random.Random(5).shuffle(order)
    assert schedule.resolve_wave([lanes[i] for i in order]) \
        == [fates[i] for i in order]


def test_default_bitplane_campaign_runs_one_wave_per_testcase():
    """Without ``wave_lanes`` every testcase's items form one wave, and
    the records equal single-lane waves and the slow path."""
    from tests.difftools import BASE_CONFIG, run_campaign, sample_sites

    from repro.obs import MetricsRegistry
    from repro.sfi import CampaignConfig, SfiExperiment
    from repro.sfi.campaign import plan_injections

    registry = MetricsRegistry()
    experiment = SfiExperiment(
        CampaignConfig(**BASE_CONFIG, backend="bitplane"), metrics=registry)
    sites = sample_sites(experiment, 90, 6)
    result = experiment.run_campaign(sites, 6)
    testcases = {item.testcase_index
                 for item in plan_injections(sites, len(experiment.suite))}
    assert registry.get("sfi_waves_total").value() == len(testcases)

    runs = [run_campaign({}, 6, 0, sites=sites, **kwargs)[1].records
            for kwargs in (dict(backend="bitplane", wave_lanes=1),
                           dict(fastpath=False))]
    assert runs == [result.records, result.records]


@pytest.mark.parametrize("lanes", [0, -1])
def test_wave_lanes_below_one_rejected(lanes):
    """A non-positive chunk size would silently drop a testcase's
    trials; the experiment refuses it up front."""
    from tests.difftools import BASE_CONFIG

    from repro.sfi import CampaignConfig, SfiExperiment

    with pytest.raises(ValueError, match="wave_lanes"):
        SfiExperiment(CampaignConfig(**BASE_CONFIG, backend="bitplane",
                                     wave_lanes=lanes))


def test_compiled_schedule_cache_shares_frozen_schedules():
    """Two experiments with identical config hit the schedule cache —
    same object — which is only sound because nothing downstream
    mutates it: resolving the same wave twice is bit-stable."""
    from tests.difftools import run_campaign, sample_sites

    exp1, result1 = run_campaign({}, 4, 40, backend="bitplane")
    exp2, result2 = run_campaign({}, 4, 40, backend="bitplane")
    assert [id(s) for s in exp1.schedules] == [id(s) for s in exp2.schedules]
    assert result1.records == result2.records
    schedule = exp1.schedules[0]
    site = exp1.latch_map.site(sample_sites(exp1, 1, 4)[0])
    descriptor = (exp1._latch_index[id(site.latch)], site.bit,
                  site.is_parity_bit, 10)
    assert schedule.resolve_wave([descriptor]) \
        == schedule.resolve_wave([descriptor])


def test_rung_restore_matches_replay_from_base(running_core):
    """A restored rung is bit-identical to replaying from the base
    checkpoint for the same number of cycles (the fast path's core
    soundness claim, stated directly against the digest)."""
    emulator = AwanEmulator(running_core, max_rungs=8)
    emulator.checkpoint("tc")
    for _ in range(120):
        running_core.cycle()
    emulator.save_rung("tc")
    rung_cycle = running_core.cycles
    rung_digest = running_core.state_digest()

    emulator.reload("tc")
    while running_core.cycles < rung_cycle:
        running_core.cycle()
    assert running_core.state_digest() == rung_digest

    emulator.restore_nearest("tc", rung_cycle)
    assert running_core.state_digest() == rung_digest
