"""Plane-algebra reference model of a bit-plane wave.

The bit-plane backend resolves a wave with one schedule lookup per lane
(:meth:`repro.emulator.bitplane.CompiledSchedule.resolve_wave`).  This
module is the independent oracle that lookup is checked against: it
evaluates the same wave the word-parallel way, with up to 63 trials
plus the golden run packed into one integer per site.  Bit *k* of a
plane word is trial *k*'s divergence from the golden run at that site;
lane 0 is the golden run itself, so its bit is always 0 and "has any
trial diverged?" is one word-compare against zero.

:func:`plane_wave` walks each site's injections and golden accesses in
sequence order: an injection XORs its lane into the divergence plane, a
golden read of a diverged lane peels it, a golden write of a diverged
lane converges it, and lanes still diverged at the end survive.
"""

from __future__ import annotations

#: Plane geometry: one Python int word per site, lane 0 = golden.
PLANE_LANES = 64
GOLDEN_LANE = 0
MAX_WAVE_TRIALS = PLANE_LANES - 1


def plane_mask(lanes: int) -> int:
    """All-lanes-set word for a ``lanes``-wide wave."""
    return (1 << lanes) - 1


def plane_not(plane: int, lanes: int) -> int:
    """Lane-wise NOT, bounded to the wave width."""
    return ~plane & plane_mask(lanes)


def plane_and(a: int, b: int) -> int:
    """Lane-wise AND."""
    return a & b


def plane_or(a: int, b: int) -> int:
    """Lane-wise OR."""
    return a | b


def plane_xor(a: int, b: int) -> int:
    """Lane-wise XOR (an injection in the divergence domain)."""
    return a ^ b


def plane_mux(sel: int, a: int, b: int, lanes: int) -> int:
    """Lane-wise MUX: lane k takes ``a`` where ``sel`` is 1, else ``b``."""
    return plane_or(plane_and(sel, a), plane_and(plane_not(sel, lanes), b))


def broadcast(level: int, lanes: int) -> int:
    """Replicate one scalar bit across every lane of a plane."""
    return plane_mask(lanes) if level & 1 else 0


def lane_word(lane: int) -> int:
    """The single-lane mask for lane ``lane``."""
    return 1 << lane


def pack_lanes(levels) -> int:
    """Pack per-lane scalar bits (lane 0 first) into one plane word."""
    plane = 0
    for lane, level in enumerate(levels):
        if level & 1:
            plane |= lane_word(lane)
    return plane


def unpack_lanes(plane: int, lanes: int) -> tuple:
    """Unpack a plane word into per-lane scalar bits (lane 0 first)."""
    return tuple((plane >> lane) & 1 for lane in range(lanes))


def divergence_plane(plane: int, golden_level: int, lanes: int) -> int:
    """Re-base an absolute plane against its golden lane's level."""
    return plane_xor(plane, broadcast(golden_level, lanes))


def diverged(divergence: int) -> bool:
    """The divergence detect: one word-compare against the golden plane
    (identically zero in the divergence domain)."""
    return divergence != 0


def _site_events(schedule, index: int, bit: int, is_parity: bool):
    """Every golden access of one site as ``(seq, kind)``, in order."""
    if is_parity:
        reads = [schedule.pr.get(index, ())]
        writes = [schedule.pw_seq.get(index, ())]
    else:
        reads = [schedule.vr.get(index, ()),
                 schedule.br.get((index, bit), ())]
        writes = [schedule.vw_seq.get(index, ()),
                  schedule.bw_seq.get((index, bit), ())]
    events = {seq: "R" for stream in reads for seq in stream}
    for stream in writes:
        for seq in stream:
            events.setdefault(seq, "W")
    return sorted(events.items())


def plane_wave(schedule, lanes) -> list:
    """Resolve a wave of at most :data:`MAX_WAVE_TRIALS` injections in
    plane algebra; same arguments and fates as ``resolve_wave``.

    Entry *i* of ``lanes`` rides plane-word bit ``i + 1``.  Lanes that
    share a site share one divergence plane, so any coupling between
    lanes would show up here as a fate that differs from the lookup.
    """
    if len(lanes) > MAX_WAVE_TRIALS:
        raise ValueError(
            f"wave of {len(lanes)} lanes exceeds {MAX_WAVE_TRIALS}")
    width = len(lanes) + 1
    by_site: dict = {}
    for pos, (index, bit, is_parity, cycle) in enumerate(lanes):
        by_site.setdefault((index, bit, bool(is_parity)), []).append(
            (schedule.boundary(cycle), lane_word(pos + 1)))
    peel = conv = 0
    peel_cycle: dict = {}
    for (index, bit, is_parity), members in sorted(by_site.items()):
        # Injections sort before a golden access with the same sequence
        # number: the boundary is the first access *after* the flip.
        ops = [(boundary, 0, "I", word) for boundary, word in members]
        ops += [(seq, 1, kind, 0)
                for seq, kind in _site_events(schedule, index, bit,
                                              is_parity)]
        divergence = 0
        for seq, _order, kind, word in sorted(ops):
            if kind == "I":
                divergence = plane_xor(divergence, word)
                continue
            hit = divergence  # every diverged lane sees the access
            if not diverged(hit):
                continue
            divergence = plane_and(divergence, plane_not(hit, width))
            if kind == "R":
                peel = plane_or(peel, hit)
                for lane, level in enumerate(unpack_lanes(hit, width)):
                    if level:
                        peel_cycle[lane] = schedule.seq_cycle(seq)
            else:
                conv = plane_or(conv, hit)
    fates = []
    for pos in range(len(lanes)):
        lane = pos + 1
        if peel & lane_word(lane):
            fates.append(("peel", peel_cycle[lane]))
        elif conv & lane_word(lane):
            fates.append(("converge", None))
        else:
            fates.append(("survive", None))
    return fates
