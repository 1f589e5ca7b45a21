"""Configuration for the P6-lite core model.

The modelled core is a scaled-down POWER6-class machine: the real design
holds ~175k latch bits per core; this model defaults to roughly 15k bits
per core with the same *relative* unit sizes (LSU largest, RUT smallest),
which is what the paper's Figure 4 normalisation depends on.  ``scale``
multiplies the sizes of the dead/debug latch blocks so tests can run a
small model while benches run a bigger one.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CoreParams:
    """Static structural and timing parameters of one core."""

    # Fetch
    fetch_buffer_entries: int = 4
    icache_lines: int = 128
    icache_words_per_line: int = 4
    icache_miss_penalty: int = 5

    # Load/store
    dcache_lines: int = 128
    dcache_words_per_line: int = 4
    dcache_miss_penalty: int = 6
    store_queue_entries: int = 6
    derat_entries: int = 16

    # Fetch translation
    ierat_entries: int = 8

    # Recovery / RAS
    watchdog_threshold: int = 256
    recovery_flush_cycles: int = 4
    recovery_restore_words_per_cycle: int = 16
    max_recoveries_without_progress: int = 3
    ckpt_scrub_interval: int = 24  # cycles between checkpoint scrub reads

    # Core periphery ("nest"): memory controller + I/O bridge — the
    # paper's future-work injection targets.  Off by default.
    include_nest: bool = False
    mc_queue_entries: int = 4

    # Debug/pervasive latch population scaling (1.0 = default model size).
    scale: float = 1.0

    # Dead/debug latch block sizes (bits, before scaling), per unit.  These
    # model the performance counters, trace arrays and spare latches real
    # units carry; they are part of the injectable population and their
    # natural outcome is architectural masking.
    debug_bits: dict[str, int] = field(default_factory=lambda: {
        "IFU": 1400,
        "IDU": 600,
        "FXU": 600,
        "FPU": 500,
        "LSU": 2200,
        "RUT": 120,
        "CORE": 1300,
        "NEST": 900,
    })

    def __post_init__(self) -> None:
        for name in _AT_LEAST_ONE:
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"CoreParams.{name} must be >= 1, got {value}")
        for name in _NON_NEGATIVE:
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"CoreParams.{name} must be >= 0, got {value}")

    def scaled_debug_bits(self, unit: str) -> int:
        return max(0, int(self.debug_bits.get(unit, 0) * self.scale))


#: Sizes and rates that must be at least 1.  With a zero the core divides
#: by zero on its first cycle (scrub interval), never finishes a recovery
#: (restore words per cycle) or fails at construction with a latch-width
#: message that does not name the field (the queue, buffer, cache and ERAT
#: sizes).
_AT_LEAST_ONE = ("fetch_buffer_entries", "icache_lines",
                 "icache_words_per_line", "dcache_lines",
                 "dcache_words_per_line", "store_queue_entries",
                 "derat_entries", "ierat_entries",
                 "recovery_restore_words_per_cycle", "ckpt_scrub_interval",
                 "mc_queue_entries")
_NON_NEGATIVE = ("icache_miss_penalty", "dcache_miss_penalty")

#: Canonical unit names, in the order the paper's Figure 3 presents them.
UNIT_NAMES = ("IFU", "IDU", "FXU", "FPU", "LSU", "RUT", "CORE")
