"""Debug blocks, parameters and model scaling."""

import pytest

from repro.cpu import CoreParams, Power6Core
from repro.cpu.debugblock import DebugBlock


class TestDebugBlock:
    def test_bit_budget_met_exactly(self):
        block = DebugBlock("d", 1000, "X")
        assert block.latch_bits() == 1000

    def test_zero_bits(self):
        block = DebugBlock("d", 0, "X")
        assert block.latch_bits() == 0

    def test_small_budget(self):
        assert DebugBlock("d", 5, "X").latch_bits() == 5

    def test_latches_unprotected_and_in_ring(self):
        block = DebugBlock("d", 100, "MYRING")
        for latch in block.all_latches():
            assert not latch.protected
            assert latch.ring == "MYRING"


class TestParams:
    def test_scale_shrinks_debug_population(self):
        small = Power6Core(CoreParams(scale=0.1))
        large = Power6Core(CoreParams(scale=1.0))
        assert small.latch_bits() < large.latch_bits()

    def test_scaled_debug_bits(self):
        params = CoreParams(scale=0.5)
        assert params.scaled_debug_bits("LSU") == \
            int(params.debug_bits["LSU"] * 0.5)
        assert params.scaled_debug_bits("UNKNOWN") == 0

    def test_default_unit_ordering_matches_paper(self):
        """LSU must have the largest latch population (Figure 4 relies
        on it), RUT the smallest."""
        core = Power6Core()
        bits = {unit: sum(l.width for l in module.all_latches())
                for unit, module in core.units.items()}
        assert max(bits, key=bits.get) == "LSU"
        assert min(bits, key=bits.get) == "RUT"

    def test_frozen(self):
        params = CoreParams()
        with pytest.raises(Exception):
            params.scale = 2.0

    def test_custom_geometry_propagates(self):
        core = Power6Core(CoreParams(icache_lines=16, dcache_lines=16,
                                     store_queue_entries=2))
        assert core.ifu.icache.lines == 16
        assert core.lsu.dcache.lines == 16
        assert len(core.lsu.sq_addr) == 2


class TestParamsValidation:
    @pytest.mark.parametrize("field", [
        "ckpt_scrub_interval", "fetch_buffer_entries", "icache_lines",
        "icache_words_per_line", "dcache_lines", "dcache_words_per_line",
        "store_queue_entries", "derat_entries", "ierat_entries",
        "recovery_restore_words_per_cycle", "mc_queue_entries"])
    def test_sizes_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"CoreParams.{field} must be >= 1"):
            CoreParams(**{field: 0})

    @pytest.mark.parametrize("field", ["icache_miss_penalty",
                                       "dcache_miss_penalty"])
    def test_miss_penalties_must_not_be_negative(self, field):
        with pytest.raises(ValueError, match=f"CoreParams.{field} must be >= 0"):
            CoreParams(**{field: -1})

    @pytest.mark.parametrize("field", ["icache_miss_penalty",
                                       "dcache_miss_penalty"])
    def test_zero_miss_penalty_runs(self, field, testcase):
        core = Power6Core(CoreParams(scale=0.15, **{field: 0}))
        core.load_program(testcase.program)
        core.run(20_000)
        assert core.halted and core.error_free()

    def test_smallest_valid_geometry_runs(self, testcase):
        """One of everything (and a scrub every cycle) still executes."""
        core = Power6Core(CoreParams(
            scale=0.15, fetch_buffer_entries=1, icache_lines=1,
            icache_words_per_line=1, dcache_lines=1, dcache_words_per_line=1,
            store_queue_entries=1, derat_entries=1, ierat_entries=1,
            ckpt_scrub_interval=1))
        core.load_program(testcase.program)
        core.run(200_000)
        assert core.halted and core.error_free()
