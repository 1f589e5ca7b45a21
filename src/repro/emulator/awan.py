"""The Awan hardware-emulation engine (modelled).

Awan is IBM's programmable acceleration engine: the design's VHDL is
compiled onto a network of Boolean-function processors and evaluated in a
cycle-based paradigm.  This module models the engine's *interface and
throughput characteristics*: model load, flat latch addressability,
checkpoint save/reload, cycle-batched execution, sticky/toggle fault
forcing, and an accounting of engine time versus host-communication time
(the paper notes throughput is dominated by host interaction, which the
SFI methodology minimises).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.cpu.core import CoreSnapshot, Power6Core
from repro.rtl.fault import FaultSite, InjectionMode

from repro.emulator.netlist import LatchMap

#: Modelled engine throughput (machine cycles per second of engine time).
#: Awan-class accelerators run in the 100k-1M cycle/s range.
AWAN_CYCLES_PER_SECOND = 500_000.0

#: Modelled cost of one host<->engine interaction, seconds.  Each batched
#: latch access or status poll pays this once.
HOST_INTERACTION_SECONDS = 0.002


@dataclass
class EngineStats:
    """Accounting of where emulation time goes."""

    cycles_run: int = 0
    host_interactions: int = 0
    checkpoints_saved: int = 0
    checkpoints_loaded: int = 0
    injections: int = 0
    # Checkpoint-ladder accounting (the fast path's replay cache).
    rungs_saved: int = 0
    rung_evictions: int = 0
    ladder_hits: int = 0
    ladder_misses: int = 0
    cycles_skipped: int = 0

    @property
    def engine_seconds(self) -> float:
        return self.cycles_run / AWAN_CYCLES_PER_SECOND

    @property
    def host_seconds(self) -> float:
        return self.host_interactions * HOST_INTERACTION_SECONDS

    @property
    def total_seconds(self) -> float:
        return self.engine_seconds + self.host_seconds


@dataclass
class _StickyFault:
    site: FaultSite
    level: int
    remaining: int


class AwanEmulator:
    """A loaded model plus the engine-side execution machinery."""

    def __init__(self, core: Power6Core, max_rungs: int = 256) -> None:
        self.core = core
        self.latch_map = LatchMap(core)
        self.stats = EngineStats()
        self.max_rungs = max_rungs
        self._checkpoints: dict[str, CoreSnapshot] = {}
        # Checkpoint ladder: mid-execution snapshots keyed by
        # (checkpoint name, cycle), LRU-evicted beyond ``max_rungs`` so
        # a long reference run cannot grow engine memory without bound.
        self._ladder: OrderedDict[tuple[str, int], CoreSnapshot] = OrderedDict()
        self._sticky: list[_StickyFault] = []

    # ------------------------------------------------------------------
    # Model control.

    def checkpoint(self, name: str = "default") -> None:
        """Save the full model state under ``name``."""
        self._checkpoints[name] = self.core.snapshot()
        self.stats.checkpoints_saved += 1
        self.stats.host_interactions += 1

    def reload(self, name: str = "default") -> None:
        """Reload a previously saved checkpoint (between injections)."""
        self.core.restore(self._checkpoints[name])
        self._sticky.clear()
        self.stats.checkpoints_loaded += 1
        self.stats.host_interactions += 1

    def has_checkpoint(self, name: str = "default") -> bool:
        return name in self._checkpoints

    def saved_state(self) -> tuple[dict, tuple]:
        """Every saved checkpoint and ladder rung (the latter as
        ``(key, snapshot)`` pairs in LRU order), for
        :meth:`load_saved_state` on another engine of the same model."""
        return dict(self._checkpoints), tuple(self._ladder.items())

    def load_saved_state(self, checkpoints: dict, ladder) -> None:
        """Replace the saved checkpoints and ladder with ``checkpoints``
        and the ``(key, snapshot)`` pairs of ``ladder`` (oldest first).
        Snapshots are shared, not copied: restores only read them."""
        self._checkpoints = dict(checkpoints)
        self._ladder = OrderedDict(ladder)

    # ------------------------------------------------------------------
    # Checkpoint ladder (fast-path replay cache).

    @property
    def sticky_pending(self) -> bool:
        """True while a sticky fault is still being re-asserted."""
        return bool(self._sticky)

    def rung_count(self, name: str | None = None) -> int:
        if name is None:
            return len(self._ladder)
        return sum(1 for key in self._ladder if key[0] == name)

    def save_rung(self, name: str) -> None:
        """Snapshot the current (mid-execution) state as a ladder rung
        for checkpoint ``name`` at the current cycle."""
        if self.max_rungs < 1:
            return
        key = (name, self.core.cycles)
        self._ladder[key] = self.core.snapshot()
        self._ladder.move_to_end(key)
        self.stats.rungs_saved += 1
        self.stats.host_interactions += 1
        while len(self._ladder) > self.max_rungs:
            self._ladder.popitem(last=False)
            self.stats.rung_evictions += 1

    def restore_nearest(self, name: str, cycle: int) -> int:
        """Restore the highest rung of ``name`` at or below ``cycle``
        (falling back to the base checkpoint); returns the restored
        cycle so the caller fast-forwards only the remainder."""
        best: tuple[str, int] | None = None
        for key in self._ladder:
            if key[0] == name and key[1] <= cycle and \
                    (best is None or key[1] > best[1]):
                best = key
        if best is None:
            self.stats.ladder_misses += 1
            self.reload(name)
            return self.core.cycles
        self._ladder.move_to_end(best)
        self.core.restore(self._ladder[best])
        self._sticky.clear()
        self.stats.ladder_hits += 1
        self.stats.cycles_skipped += best[1]
        self.stats.checkpoints_loaded += 1
        self.stats.host_interactions += 1
        return best[1]

    def drop_rungs(self, name: str | None = None) -> None:
        """Forget ladder rungs (all of them, or one checkpoint's)."""
        if name is None:
            self._ladder.clear()
            return
        for key in [k for k in self._ladder if k[0] == name]:
            del self._ladder[key]

    # ------------------------------------------------------------------
    # Clocking.

    def clock(self, cycles: int) -> int:
        """Run the engine for up to ``cycles`` machine cycles.

        Stops early when the model quiesces (halt, hang or checkstop) so
        callers don't burn engine time on a dead machine.  Returns cycles
        actually run.
        """
        core = self.core
        run = 0
        if self._sticky:
            for _ in range(cycles):
                core.cycle()
                run += 1
                self._hold_sticky()
                if core.quiesced:
                    break
        else:
            for _ in range(cycles):
                core.cycle()
                run += 1
                if core.quiesced:
                    break
        self.stats.cycles_run += run
        return run

    def _hold_sticky(self) -> None:
        still_active = []
        for fault in self._sticky:
            fault.site.hold(fault.level)
            fault.remaining -= 1
            if fault.remaining > 0:
                still_active.append(fault)
        self._sticky = still_active

    # ------------------------------------------------------------------
    # Fault forcing.

    def inject(self, site_index: int, mode: InjectionMode = InjectionMode.TOGGLE,
               sticky_cycles: int = 16) -> FaultSite:
        """Flip one latch bit at the current cycle boundary.

        TOGGLE flips once; STICKY re-asserts the flipped level for
        ``sticky_cycles`` cycles even if functional logic rewrites it.
        """
        from repro.cpu.events import EventKind
        site = self.latch_map.site(site_index)
        level = site.inject()
        self.core.event_log.record(
            self.core.cycles, EventKind.INJECTION,
            f"{site.name} -> {level} ({mode.value})")
        if mode is InjectionMode.STICKY:
            self._sticky.append(_StickyFault(site, level, sticky_cycles))
        self.stats.injections += 1
        self.stats.host_interactions += 1
        return site

    # ------------------------------------------------------------------
    # Observability (each read is one host interaction).

    def read_status(self) -> dict:
        """Poll the system/processor status registers the paper monitors."""
        core = self.core
        perv = core.pervasive
        self.stats.host_interactions += 1
        return {
            "halted": core.halted,
            "quiesced": core.quiesced,
            "checkstop": bool(perv.xstop.value),
            "hang": bool(perv.hang.value),
            "fir_rec": perv.fir_rec.value,
            "fir_xstop": perv.fir_xstop.value,
            "fir_info": perv.fir_info.value,
            "recoveries": perv.rec_count.value,
            "corrected": perv.corrected_ctr.value,
            "cycles": core.cycles,
            "committed": core.committed,
        }

    def read_latch(self, name: str) -> int:
        """Read one latch by hierarchical name (scan access)."""
        self.stats.host_interactions += 1
        index = self.latch_map.index_of(name + ".0")
        return self.latch_map.latch_of(index).value
