"""Campaign orchestration on the shared prepared experiment."""

import pytest

from repro.rtl import InjectionMode
from repro.sfi import CampaignConfig, Outcome, SfiExperiment
from repro.sfi.outcomes import OUTCOME_ORDER

from tests.conftest import SMALL_PARAMS


class TestPreparation:
    def test_references_established(self, experiment):
        assert len(experiment.references) == len(experiment.suite)
        for reference in experiment.references:
            assert reference.cycles > 0
            assert reference.committed == reference.testcase.instructions_retired

    def test_checkpoints_exist(self, experiment):
        for index in range(len(experiment.suite)):
            assert experiment.emulator.has_checkpoint(f"tc{index}")

    def test_mode_override_applied_in_checkpoint(self):
        experiment = SfiExperiment(CampaignConfig(
            suite_size=1, suite_seed=7, core_params=SMALL_PARAMS,
            checker_mask=0))
        experiment.emulator.reload("tc0")
        assert experiment.core.pervasive.mode_chk_en.value == 0

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="unknown pervasive mode latch"):
            SfiExperiment(CampaignConfig(
                suite_size=1, core_params=SMALL_PARAMS,
                mode_overrides={"mode_bogus": 1}))


class TestRunOne:
    def test_record_fields(self, experiment):
        record = experiment.run_one(100, 0, 10)
        assert record.site_index == 100
        assert record.unit in experiment.latch_map.units()
        assert record.outcome in OUTCOME_ORDER
        assert record.testcase_seed == experiment.suite[0].seed
        assert record.inject_cycle == 10

    def test_machine_state_isolated_between_injections(self, experiment):
        first = experiment.run_one(50, 0, 5)
        second = experiment.run_one(50, 0, 5)
        assert first.outcome == second.outcome  # full reload between runs


class TestCampaign:
    def test_deterministic_with_seed(self, experiment):
        a = experiment.run_random_campaign(30, seed=4)
        b = experiment.run_random_campaign(30, seed=4)
        assert [r.outcome for r in a.records] == [r.outcome for r in b.records]
        assert [r.site_name for r in a.records] == [r.site_name for r in b.records]

    def test_different_seeds_differ(self, experiment):
        a = experiment.run_random_campaign(30, seed=4)
        b = experiment.run_random_campaign(30, seed=5)
        assert [r.site_name for r in a.records] != [r.site_name for r in b.records]

    def test_counts_sum_to_total(self, experiment):
        result = experiment.run_random_campaign(40, seed=1)
        assert sum(result.counts().values()) == result.total == 40
        assert abs(sum(result.fractions().values()) - 1.0) < 1e-9

    def test_cycles_through_suite(self, experiment):
        result = experiment.run_campaign([0, 1, 2, 3], seed=0)
        seeds = [record.testcase_seed for record in result.records]
        assert seeds[0] == seeds[2] and seeds[1] == seeds[3]
        assert seeds[0] != seeds[1]

    def test_mostly_vanished(self, experiment):
        """The paper's headline: ~95% of flips are masked."""
        result = experiment.run_random_campaign(150, seed=8)
        assert result.fractions()[Outcome.VANISHED] > 0.80

    def test_by_unit_partition(self, experiment):
        result = experiment.run_random_campaign(60, seed=2)
        grouped = result.by_unit()
        assert sum(r.total for r in grouped.values()) == result.total

    def test_sticky_mode_campaign_runs(self):
        experiment = SfiExperiment(CampaignConfig(
            suite_size=1, suite_seed=31, core_params=SMALL_PARAMS,
            injection_mode=InjectionMode.STICKY, sticky_cycles=8))
        result = experiment.run_random_campaign(25, seed=0)
        assert result.total == 25


class TestRawMode:
    def test_raw_mode_has_no_corrections(self):
        experiment = SfiExperiment(CampaignConfig(
            suite_size=2, suite_seed=77, core_params=SMALL_PARAMS,
            checker_mask=0))
        result = experiment.run_random_campaign(80, seed=3)
        # With every checker masked nothing can be *detected and corrected*;
        # (the hardwired checkstop network — e.g. a flipped checkstop-FIR
        # bit — is not a checker and can still fire).
        assert result.counts()[Outcome.CORRECTED] == 0


class TestEngineAccounting:
    @pytest.mark.parametrize("backend", ["scalar", "bitplane"])
    def test_every_trial_counts_one_injection(self, backend):
        """Trials resolved without simulating (at-injection masked
        exits, wave converge/survive, peels entered past the flip)
        count in the engine stats like simulated ones."""
        experiment = SfiExperiment(CampaignConfig(
            suite_size=2, suite_seed=99, core_params=SMALL_PARAMS,
            backend=backend))
        before = experiment.emulator.stats.injections
        result = experiment.run_random_campaign(60, seed=4)
        assert result.total == 60
        assert experiment.emulator.stats.injections - before == 60

    def test_default_waves_land_in_a_finite_occupancy_bucket(self):
        """A default wave is a whole testcase's trials, well past the
        64 lanes of a machine word; the histogram still resolves it."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        experiment = SfiExperiment(CampaignConfig(
            suite_size=2, suite_seed=99, core_params=SMALL_PARAMS,
            backend="bitplane"), metrics=registry)
        experiment.run_random_campaign(160, seed=4)
        occupancy = registry.get("sfi_wave_occupancy_lanes")
        assert occupancy.count() == 2
        assert occupancy.sum() / occupancy.count() > 64
        (_, finite), (_, total) = occupancy.cumulative_buckets(())[-2:]
        assert finite == total == 2
