"""Bit-plane backend: classify waves of trials against the golden schedule.

The fault-free reference run is recorded once per testcase by
:func:`record_schedule` (a :class:`~repro.cpu.touchtrace.TouchTrace`
subclass, so the existing ``untraced()`` windows and the masked-exit
``last_touch`` licence keep working).  :func:`compile_netlist` flattens
that recorded ``Core.cycle`` activity into a :class:`CompiledSchedule`
— per-latch read/write streams in sequence-exact order — cached
in-process per golden trajectory.  A wave of injections is then
resolved by one lookup per lane: the kind of the site's first golden
access after the lane's injection boundary
(:meth:`CompiledSchedule.first_event`) is the lane's fate.

* a read: the trial consumes the flipped bit, so the lane *peels* to the
  scalar path at that read's cycle;
* a write: the golden run overwrites the flip, so the lane *converges*;
* no access: the flip *survives* untouched to quiesce.

Why this is exact: a TOGGLE trial is bit-identical to the golden run
until the golden schedule first *reads* the flipped bit.  If a *write*
of that bit comes first, the trial (by that same identical-prefix
induction) writes the same value and the divergence is gone — the
lane's future *is* the golden future.  A read first means the trial's
control flow may now fork, which only simulation can follow.  Each lane
is its own trial with one injection into one bit, so no lane's fate
depends on any other lane: a wave is a batch of independent lookups,
of any length.  The differential suite
(``tests/test_bitplane_differential.py``) holds the scheme to
byte-identical journals against the seed path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from contextlib import contextmanager

from repro.cpu import touchtrace
from repro.cpu.touchtrace import TouchTrace
from repro.rtl.latch import Latch

_VALUE = Latch.value  # slot descriptors behind the traced properties
_PAR = Latch.par

#: Strides of the bit-plane side's own golden instrumentation (denser
#: than the scalar fast path's, because a peeled lane re-enters close
#: to its first-read cycle and exits at the first licensed boundary).
BITPLANE_DIGEST_STRIDE = 8
BITPLANE_RUNG_STRIDE = 4


# ----------------------------------------------------------------------
# Schedule recording.

class ScheduleTrace(TouchTrace):
    """Sequence-exact access schedule of one golden run.

    Extends the plain last-touch trace with, per latch and domain
    (value / parity / single bit), the ordered stream of *first accesses
    per cycle*: read streams keep one monotonically increasing sequence
    number per (latch, cycle), write streams additionally keep the value
    the latch holds after that cycle's last write.  Sequence numbers are
    global, so read-vs-write order *within* a cycle is exact — no tie
    conservatism at the injection boundary.

    ``marks[c]`` is the first sequence number stamped at cycle ``c`` or
    later, which makes "everything after the injection at the end of
    cycle c" a single ``bisect``.
    """

    __slots__ = ("seq", "marks", "initial",
                 "vr", "vw_seq", "vw_cyc", "vw_val",
                 "pr", "pw_seq", "pw_cyc", "pw_val",
                 "br", "bw_seq", "bw_cyc", "bw_val",
                 "_vr_last", "_pr_last", "_br_last")

    def __init__(self, core) -> None:
        super().__init__(core)
        self.seq = 0
        self.marks: list[int] = [0]
        self.initial = tuple((latch.value, latch.par)
                             for latch in core.all_latches())
        self.vr: dict[int, list[int]] = {}
        self.vw_seq: dict[int, list[int]] = {}
        self.vw_cyc: dict[int, list[int]] = {}
        self.vw_val: dict[int, list[int]] = {}
        self.pr: dict[int, list[int]] = {}
        self.pw_seq: dict[int, list[int]] = {}
        self.pw_cyc: dict[int, list[int]] = {}
        self.pw_val: dict[int, list[int]] = {}
        self.br: dict[tuple[int, int], list[int]] = {}
        self.bw_seq: dict[tuple[int, int], list[int]] = {}
        self.bw_cyc: dict[tuple[int, int], list[int]] = {}
        self.bw_val: dict[tuple[int, int], list[int]] = {}
        self._vr_last: dict[int, int] = {}
        self._pr_last: dict[int, int] = {}
        self._br_last: dict[tuple[int, int], int] = {}

    # Stamping helpers: every *recorded* access takes one sequence
    # number; repeats within a cycle collapse onto the first (reads) or
    # update the cycle's final value in place (writes).

    def _mark(self, cycle: int) -> None:
        marks = self.marks
        while len(marks) <= cycle:
            marks.append(self.seq)

    def _read(self, streams, last, latch, bit=None) -> None:
        if bit is None:
            key = id(latch)
        else:
            key = (id(latch), bit)
        cycle = self.core.cycles
        if last.get(key) == cycle:
            return
        last[key] = cycle
        self._mark(cycle)
        stream = streams.get(key)
        if stream is None:
            streams[key] = [self.seq]
        else:
            stream.append(self.seq)
        self.seq += 1

    def _write(self, seqs, cycs, vals, latch, value, bit=None) -> None:
        if bit is None:
            key = id(latch)
        else:
            key = (id(latch), bit)
        cycle = self.core.cycles
        cyc = cycs.get(key)
        if cyc is not None and cyc and cyc[-1] == cycle:
            vals[key][-1] = value
            return
        self._mark(cycle)
        if cyc is None:
            seqs[key] = [self.seq]
            cycs[key] = [cycle]
            vals[key] = [value]
        else:
            seqs[key].append(self.seq)
            cyc.append(cycle)
            vals[key].append(value)
        self.seq += 1


class _ScheduleLatch(Latch):
    """Layout-compatible latch stamping the schedule trace.

    Whole-word accesses stream into the value/parity tables; the
    bit-granular accessors (``bit``/``write_bit``) stream into per-bit
    tables for unprotected latches, so scoreboard-style consumers do
    not make every lane of a wide mask latch peel.  ``last_touch`` is
    co-populated with identical semantics to the plain touch trace.
    """

    __slots__ = ()

    @property
    def value(self) -> int:
        trace = touchtrace._ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
            trace._read(trace.vr, trace._vr_last, self)
        return _VALUE.__get__(self)

    @value.setter
    def value(self, new: int) -> None:
        trace = touchtrace._ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
            trace._write(trace.vw_seq, trace.vw_cyc, trace.vw_val,
                         self, new)
        _VALUE.__set__(self, new)

    @property
    def par(self) -> int:
        trace = touchtrace._ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
            trace._read(trace.pr, trace._pr_last, self)
        return _PAR.__get__(self)

    @par.setter
    def par(self, new: int) -> None:
        trace = touchtrace._ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
            trace._write(trace.pw_seq, trace.pw_cyc, trace.pw_val,
                         self, new)
        _PAR.__set__(self, new)

    def bit(self, bit: int) -> int:
        trace = touchtrace._ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
            trace._read(trace.br, trace._br_last, self, bit)
        return (_VALUE.__get__(self) >> bit) & 1

    def write_bit(self, bit: int, level: int) -> None:
        if self.protected:
            # A protected write re-derives the whole parity shadow from
            # the whole value: that is a whole-latch access, take the
            # conservative base path (which stamps value and parity).
            Latch.write_bit(self, bit, level)
            return
        trace = touchtrace._ACTIVE
        if trace is not None:
            trace.last_touch[id(self)] = trace.core.cycles
            trace._write(trace.bw_seq, trace.bw_cyc, trace.bw_val,
                         self, level & 1, bit)
        value = _VALUE.__get__(self)
        if level:
            value |= 1 << bit
        else:
            value &= ~(1 << bit) & self.mask
        _VALUE.__set__(self, value)


@contextmanager
def record_schedule(core):
    """Record the sequence-exact access schedule of a golden run.

    Drop-in for :func:`repro.cpu.touchtrace.trace_touches` on the
    bit-plane path: yields a :class:`ScheduleTrace` (which *is* a
    ``TouchTrace``, so ``GoldenTrace.last_touch`` and the existing
    ``untraced()`` snapshot/digest windows work unchanged).
    """
    latches = core.all_latches()
    trace = ScheduleTrace(core)
    for latch in latches:
        latch.__class__ = _ScheduleLatch
    touchtrace._ACTIVE = trace
    try:
        yield trace
    finally:
        touchtrace._ACTIVE = None
        for latch in latches:
            latch.__class__ = Latch


# ----------------------------------------------------------------------
# The compiled schedule.

_SCHEDULE_CACHE: dict = {}


def compile_netlist(core, trace: ScheduleTrace, cache_key=None):
    """Flatten one recorded golden run into a :class:`CompiledSchedule`.

    ``cache_key`` (conventionally everything that determines the golden
    trajectory: core params, weights, testcase seed, checker mask, mode
    overrides) memoises the result in-process, so repeated experiments
    over the same model/testcase skip re-deriving tables.
    """
    if cache_key is not None:
        cached = _SCHEDULE_CACHE.get(cache_key)
        if cached is not None:
            return cached
    compiled = CompiledSchedule(core, trace)
    if cache_key is not None:
        _SCHEDULE_CACHE[cache_key] = compiled
    return compiled


class CompiledSchedule:
    """Read-only flattening of one golden run's access schedule.

    Holds, per latch (keyed by position in ``core.all_latches()``
    order), the sequence-exact read/write streams of every domain, the
    cycle->sequence boundary marks, the initial state, and the
    *never-read mask set* — latches the golden run never reads in any
    domain, whose divergence therefore cannot influence a
    golden-mirroring trial (the licence for the set-masked early exit).

    Instances are immutable by convention (all streams tupled at build
    time) and shared across experiments via the compile cache, so the
    snapshot-aliasing suite pins that nothing here aliases live core
    state.
    """

    def __init__(self, core, trace: ScheduleTrace) -> None:
        self.total_seq = trace.seq
        self.marks = tuple(trace.marks)
        self.initial = trace.initial
        latches = core.all_latches()
        position = {id(latch): i for i, latch in enumerate(latches)}

        def _by_index(table):
            return {position[key]: tuple(stream)
                    for key, stream in table.items()}

        def _bits_by_index(table):
            return {(position[key[0]], key[1]): tuple(stream)
                    for key, stream in table.items()}

        self.vr = _by_index(trace.vr)
        self.vw_seq = _by_index(trace.vw_seq)
        self.vw_cyc = _by_index(trace.vw_cyc)
        self.vw_val = _by_index(trace.vw_val)
        self.pr = _by_index(trace.pr)
        self.pw_seq = _by_index(trace.pw_seq)
        self.pw_cyc = _by_index(trace.pw_cyc)
        self.pw_val = _by_index(trace.pw_val)
        self.br = _bits_by_index(trace.br)
        self.bw_seq = _bits_by_index(trace.bw_seq)
        self.bw_cyc = _bits_by_index(trace.bw_cyc)
        self.bw_val = _bits_by_index(trace.bw_val)
        bit_read_ids = {key[0] for key in self.br}
        self.mask_indices = frozenset(
            index for index in range(len(latches))
            if index not in self.vr and index not in self.pr
            and index not in bit_read_ids)

    # -- schedule queries ----------------------------------------------

    def boundary(self, cycle: int) -> int:
        """First sequence number after the injection point at the end
        of ``cycle`` (injection happens after all of that cycle's
        activity)."""
        if cycle + 1 < len(self.marks):
            return self.marks[cycle + 1]
        return self.total_seq

    def seq_cycle(self, seq: int) -> int:
        """The cycle a sequence number was stamped in."""
        return bisect_right(self.marks, seq) - 1

    def _streams(self, index: int, bit: int, is_parity: bool):
        """(read streams, write-seq streams) relevant to one site."""
        if is_parity:
            reads = [self.pr.get(index, ())]
            writes = [self.pw_seq.get(index, ())]
        else:
            reads = [self.vr.get(index, ()),
                     self.br.get((index, bit), ())]
            writes = [self.vw_seq.get(index, ()),
                      self.bw_seq.get((index, bit), ())]
        return reads, writes

    def first_event(self, index: int, bit: int, is_parity: bool,
                    boundary: int):
        """First golden access of a site at/after a boundary:
        ``(seq, kind)`` with kind ``"R"``/``"W"``, or ``None``."""
        reads, writes = self._streams(index, bit, is_parity)
        best = None
        for stream in reads:
            pos = bisect_left(stream, boundary)
            if pos < len(stream) and (best is None or stream[pos] < best[0]):
                best = (stream[pos], "R")
        for stream in writes:
            pos = bisect_left(stream, boundary)
            if pos < len(stream) and (best is None or stream[pos] < best[0]):
                best = (stream[pos], "W")
        return best

    def level_at(self, index: int, bit: int, is_parity: bool,
                 boundary: int) -> int:
        """The site's golden bit level just before an injection
        boundary (the level the flip toggles away from)."""
        if is_parity:
            seqs = self.pw_seq.get(index, ())
            pos = bisect_left(seqs, boundary) - 1
            if pos >= 0:
                return self.pw_val[index][pos] & 1
            return self.initial[index][1] & 1
        best_seq = -1
        level = (self.initial[index][0] >> bit) & 1
        seqs = self.vw_seq.get(index, ())
        pos = bisect_left(seqs, boundary) - 1
        if pos >= 0:
            best_seq = seqs[pos]
            level = (self.vw_val[index][pos] >> bit) & 1
        seqs = self.bw_seq.get((index, bit), ())
        pos = bisect_left(seqs, boundary) - 1
        if pos >= 0 and seqs[pos] > best_seq:
            level = self.bw_val[(index, bit)][pos] & 1
        return level

    def whole_write_after(self, index: int, cycle: int,
                          is_parity: bool = False) -> bool:
        """Does the golden run whole-write this latch domain after
        ``cycle``?  (Masked-exit reconstruction: if yes, the trial's
        final value is the golden final value.)"""
        cycles = (self.pw_cyc if is_parity else self.vw_cyc).get(index, ())
        return bool(cycles) and cycles[-1] > cycle

    def bits_written_after(self, index: int, cycle: int) -> int:
        """Mask of bits the golden run bit-writes after ``cycle``."""
        mask = 0
        for (idx, bit), cycles in self.bw_cyc.items():
            if idx == index and cycles and cycles[-1] > cycle:
                mask |= 1 << bit
        return mask

    # -- wave resolution ------------------------------------------------

    def resolve_wave(self, lanes):
        """Classify a wave of injections by their first golden access.

        ``lanes`` is a sequence of ``(latch_index, bit, is_parity,
        inject_cycle)`` tuples of any length.  Returns one fate per
        lane, in order: ``("peel", cycle)`` with the golden first-read
        cycle to re-enter the scalar path at, ``("converge", None)`` or
        ``("survive", None)``.
        """
        fates = []
        for index, bit, is_parity, cycle in lanes:
            event = self.first_event(index, bit, is_parity,
                                     self.boundary(cycle))
            if event is None:
                fates.append(("survive", None))
            elif event[1] == "R":
                fates.append(("peel", self.seq_cycle(event[0])))
            else:
                fates.append(("converge", None))
        return fates
