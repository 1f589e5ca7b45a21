"""Plane-algebra oracle for the bit-plane backend's wave lookup.

``CompiledSchedule.resolve_wave`` classifies each lane by one schedule
lookup.  ``tests/planes.py`` evaluates the same waves word-parallel, in
plane algebra, and the two must agree lane for lane.  The oracle is
only as sound as its word-wide primitives, so these are checked three
ways: exhaustively (every operand combination at a small lane count,
against the scalar gate truth table lane by lane), randomly (the
divergence word-compare over random 64-lane planes), and
metamorphically (lane permutation commutes with every primitive — no
op may couple lanes).
"""

from __future__ import annotations

import itertools
import random

import pytest

from tests.planes import (
    GOLDEN_LANE, MAX_WAVE_TRIALS, PLANE_LANES, broadcast, diverged,
    divergence_plane, lane_word, pack_lanes, plane_and, plane_mask,
    plane_mux, plane_not, plane_or, plane_wave, plane_xor, unpack_lanes)

LANES = 3  # exhaustive: 2**3 plane values per operand

ALL_PLANES = range(1 << LANES)


def test_wave_geometry():
    assert MAX_WAVE_TRIALS == PLANE_LANES - 1
    assert GOLDEN_LANE == 0
    assert plane_mask(PLANE_LANES) == (1 << PLANE_LANES) - 1
    assert lane_word(GOLDEN_LANE) == 1


@pytest.mark.parametrize("a,b", itertools.product(ALL_PLANES, ALL_PLANES))
def test_binary_ops_exhaustive_truth_tables(a, b):
    """Every lowered binary gate, lane by lane, against scalar truth."""
    for op, scalar in ((plane_and, lambda x, y: x & y),
                       (plane_or, lambda x, y: x | y),
                       (plane_xor, lambda x, y: x ^ y)):
        out = unpack_lanes(op(a, b), LANES)
        for lane, (x, y) in enumerate(zip(unpack_lanes(a, LANES),
                                          unpack_lanes(b, LANES))):
            assert out[lane] == scalar(x, y), (op.__name__, a, b, lane)


@pytest.mark.parametrize("a", ALL_PLANES)
def test_not_exhaustive_and_bounded(a):
    out = plane_not(a, LANES)
    assert out == plane_mask(LANES) ^ a
    assert 0 <= out < (1 << LANES), "NOT leaked past the wave width"
    for lane, x in enumerate(unpack_lanes(a, LANES)):
        assert unpack_lanes(out, LANES)[lane] == x ^ 1


@pytest.mark.parametrize("sel,a,b",
                         itertools.product(ALL_PLANES, ALL_PLANES,
                                           ALL_PLANES))
def test_mux_exhaustive_truth_table(sel, a, b):
    out = unpack_lanes(plane_mux(sel, a, b, LANES), LANES)
    for lane in range(LANES):
        s = (sel >> lane) & 1
        want = (a if s else b) >> lane & 1
        assert out[lane] == want, (sel, a, b, lane)


def test_broadcast_and_pack_unpack_roundtrip():
    assert broadcast(1, LANES) == plane_mask(LANES)
    assert broadcast(0, LANES) == 0
    for plane in ALL_PLANES:
        levels = unpack_lanes(plane, LANES)
        assert pack_lanes(levels) == plane
    rng = random.Random(20080605)
    for _ in range(64):
        levels = tuple(rng.randrange(2) for _ in range(PLANE_LANES))
        assert unpack_lanes(pack_lanes(levels), PLANE_LANES) == levels


def test_divergence_word_compare_random_planes():
    """``diverged`` is one word-compare: nonzero iff any lane's level
    differs from the golden level, and bit k flags exactly lane k."""
    rng = random.Random(0xD51)
    for _ in range(256):
        levels = tuple(rng.randrange(2) for _ in range(PLANE_LANES))
        plane = pack_lanes(levels)
        for golden_level in (0, 1):
            div = divergence_plane(plane, golden_level, PLANE_LANES)
            assert diverged(div) == any(level != golden_level
                                        for level in levels)
            assert unpack_lanes(div, PLANE_LANES) == tuple(
                level ^ golden_level for level in levels)
    # The golden lane of an absolute plane re-based against its own
    # level is never divergent.
    for _ in range(32):
        plane = rng.getrandbits(PLANE_LANES)
        golden_level = (plane >> GOLDEN_LANE) & 1
        div = divergence_plane(plane, golden_level, PLANE_LANES)
        assert div & lane_word(GOLDEN_LANE) == 0


def _permute(plane: int, perm, lanes: int) -> int:
    levels = unpack_lanes(plane, lanes)
    return pack_lanes(levels[p] for p in perm)


def test_metamorphic_lane_permutation():
    """No primitive couples lanes: permuting the lanes of every operand
    permutes the result identically, for any permutation."""
    rng = random.Random(0x1A9)
    lanes = PLANE_LANES
    for _ in range(64):
        perm = list(range(lanes))
        rng.shuffle(perm)
        a, b, sel = (rng.getrandbits(lanes) for _ in range(3))
        pa, pb, psel = (_permute(p, perm, lanes) for p in (a, b, sel))
        assert _permute(plane_and(a, b), perm, lanes) == plane_and(pa, pb)
        assert _permute(plane_or(a, b), perm, lanes) == plane_or(pa, pb)
        assert _permute(plane_xor(a, b), perm, lanes) == plane_xor(pa, pb)
        assert _permute(plane_not(a, lanes), perm, lanes) \
            == plane_not(pa, lanes)
        assert _permute(plane_mux(sel, a, b, lanes), perm, lanes) \
            == plane_mux(psel, pa, pb, lanes)
        for level in (0, 1):
            assert _permute(broadcast(level, lanes), perm, lanes) \
                == broadcast(level, lanes)
            assert _permute(divergence_plane(a, level, lanes), perm,
                            lanes) == divergence_plane(pa, level, lanes)
            assert diverged(divergence_plane(a, level, lanes)) \
                == diverged(divergence_plane(pa, level, lanes))


@pytest.fixture(scope="module")
def bitplane_experiment():
    from tests.difftools import BASE_CONFIG

    from repro.sfi import CampaignConfig, SfiExperiment

    return SfiExperiment(CampaignConfig(**BASE_CONFIG, backend="bitplane"))


def _wave(experiment, testcase: int, sites, rng) -> list:
    """Wave descriptors for ``sites`` at random inject cycles."""
    cycles = experiment.references[testcase].cycles
    lanes = []
    for site_index in sites:
        site = experiment.latch_map.site(site_index)
        lanes.append((experiment._latch_index[id(site.latch)], site.bit,
                      site.is_parity_bit, rng.randrange(cycles)))
    return lanes


def test_lookup_matches_plane_reference(bitplane_experiment):
    """Full-width waves resolve identically by lookup and by plane
    algebra, on every testcase: random sites, and a few sites shared
    by many lanes (one divergence plane carrying several trials)."""
    from tests.difftools import sample_sites

    rng = random.Random(0x5F1)
    seen = set()
    for testcase, schedule in enumerate(bitplane_experiment.schedules):
        for seed in range(4):
            sites = sample_sites(bitplane_experiment, MAX_WAVE_TRIALS,
                                 seed)
            shared = [sites[i % 4] for i in range(MAX_WAVE_TRIALS)]
            for wave_sites in (sites, shared):
                lanes = _wave(bitplane_experiment, testcase, wave_sites,
                              rng)
                fates = schedule.resolve_wave(lanes)
                assert fates == plane_wave(schedule, lanes), \
                    (testcase, seed)
                seen.update(fate for fate, _ in fates)
    assert seen == {"peel", "converge", "survive"}


def test_plane_reference_bounded_to_one_word(bitplane_experiment):
    schedule = bitplane_experiment.schedules[0]
    lane = (0, 0, False, 0)
    assert len(plane_wave(schedule, [lane] * MAX_WAVE_TRIALS)) \
        == MAX_WAVE_TRIALS
    with pytest.raises(ValueError, match="exceeds"):
        plane_wave(schedule, [lane] * (MAX_WAVE_TRIALS + 1))
