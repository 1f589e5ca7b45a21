"""Prepared-model shipping: prepare once per campaign, install everywhere.

An experiment's prepared state (checkpoints, ladder rungs, references,
golden traces, bit-plane schedules and lag trails) is one picklable
:class:`~repro.sfi.campaign.PreparedModel`.  The supervisor ships the
model of the caller's live probe to its pool workers instead of having
each re-run the references.  These tests pin that a shipped model
classifies exactly like a locally prepared one, that it survives the
retry path, that the hand-off file never outlives the run, and that the
digests it carries mean the same in every process.

None of them is marked ``differential``: the digest-portability bug they
guard against only exists before Python 3.12, so the tier-1 run of every
interpreter in the CI matrix must execute them.
"""

from __future__ import annotations

import gc
import json
import os
import queue
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.emulator.software_sim import SoftwareSimulator
from repro.sfi import CampaignConfig, SfiExperiment, campaign, supervisor
from repro.sfi.campaign import prepared_model
from repro.sfi.parallel import run_parallel_campaign
from repro.sfi.supervisor import CampaignProgress, run_shard

from tests.conftest import SMALL_PARAMS

CONFIG = CampaignConfig(suite_size=2, suite_seed=99, core_params=SMALL_PARAMS)
SITES = [110, 220, 330, 440, 550, 660, 770, 880, 990, 1100, 1210, 1320]
SEED = 5

_MARKER_ENV = "SFI_TEST_SHIP_MARKER"
_SEEDED_LOG_ENV = "SFI_TEST_SHIP_LOG"


# ----------------------------------------------------------------------
# Spawned-worker runners (module-level so spawn can unpickle them).

def seeded_sigkill_runner(config, items, seed, emit):
    """Log whether the worker's experiment was seeded before the runner
    started (only a shipped model can do that in a fresh process), then
    die like a SIGKILLed worker on the campaign's first attempt."""
    experiment = supervisor._WORKER_EXPERIMENT
    seeded = (experiment is not None and supervisor._WORKER_CONFIG == config
              and experiment.model is not None)
    with open(os.environ[_SEEDED_LOG_ENV], "a") as handle:
        handle.write(("seeded" if seeded else "unseeded") + "\n")
    try:
        Path(os.environ[_MARKER_ENV]).touch(exist_ok=False)
    except FileExistsError:
        return run_shard(config, items, seed, emit)
    os.kill(os.getpid(), signal.SIGKILL)
    return 0


def always_raising_runner(config, items, seed, emit):
    raise RuntimeError("permanent worker fault")


# ----------------------------------------------------------------------
# Helpers.

class _Retries(CampaignProgress):
    def __init__(self):
        self.retries = []

    def on_shard_retry(self, shard_id, attempt, reason, delay):
        self.retries.append(reason)


@pytest.fixture()
def shipped(monkeypatch):
    """Spy on the parent's model hand-off: every path it wrote, or None
    when the registry had nothing to ship."""
    paths = []
    real = supervisor._ship_model

    def spy(config):
        path = real(config)
        paths.append(path)
        return path

    monkeypatch.setattr(supervisor, "_ship_model", spy)
    return paths


def _serial(config, sites, seed):
    """Records and fast-path exits of a plain in-process campaign."""
    experiment = SfiExperiment(config)
    exits = {}
    experiment.fastpath_hook = \
        lambda position, payload: exits.__setitem__(position, payload)
    result = experiment.run_campaign(sites, seed=seed)
    return experiment, result.records, exits


def _journal(path):
    """(header line, body lines sorted) — pool workers append in arrival
    order, so only the line order may differ between equal campaigns."""
    lines = Path(path).read_text().splitlines()
    return lines[0], sorted(lines[1:])


def _journal_exits(path):
    _, body = _journal(path)
    lines = [json.loads(line) for line in body]
    return {line["pos"]: line["fastpath"] for line in lines}


def _pool(config, sites, seed, journal, probe, **options):
    return run_parallel_campaign(
        config, sites, seed=seed, workers=2,
        population_bits=len(probe.latch_map), journal=journal,
        backoff_base=0.0,
        reference_cycles=[r.cycles for r in probe.references],
        **options).records


# ----------------------------------------------------------------------
# Digests are process-independent.

_PREPARE_SCRIPT = """
import json, sys
from repro.cpu import CoreParams
from repro.sfi import CampaignConfig, SfiExperiment
experiment = SfiExperiment(CampaignConfig(
    suite_size=2, suite_seed=99, backend="bitplane",
    core_params=CoreParams(scale=0.15, icache_lines=32, dcache_lines=32)))
json.dump({
    "digests": [sorted(golden.digests.items())
                for golden in experiment.goldens],
    "first": [sorted(trail.first.items()) for trail in experiment._bp_trails],
    "masked": [sorted(trail.masked.items())
               for trail in experiment._bp_trails],
    "keys": [sorted(trail.keys) for trail in experiment._bp_trails],
}, sys.stdout)
"""


def test_prepared_digests_agree_across_processes():
    """Two interpreters with different hash seeds (and, under ASLR,
    different object addresses) prepare identical golden digests and
    lag trails — the lag-free digest once hashed ``None``, whose hash
    is address-derived before Python 3.12."""
    src = str(Path(campaign.__file__).resolve().parents[2])
    processes = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        processes.append(subprocess.Popen(
            [sys.executable, "-c", _PREPARE_SCRIPT], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    outputs = []
    for process in processes:
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err
        outputs.append(json.loads(out))
    first, second = outputs
    assert all(first["first"]) and all(first["digests"])
    for field in ("digests", "first", "masked", "keys"):
        assert first[field] == second[field], field


def test_golden_last_touch_keyed_by_latch_position(experiment):
    latches = experiment.core.all_latches()
    for golden in experiment.goldens:
        assert golden.last_touch
        assert all(isinstance(key, int) and 0 <= key < len(latches)
                   for key in golden.last_touch)


# ----------------------------------------------------------------------
# The registry.

def test_registry_hits_only_equal_config_on_stock_engine(monkeypatch):
    monkeypatch.setattr(campaign, "_LAST_PREPARED", None)
    foreign = SfiExperiment(CONFIG, emulator_cls=SoftwareSimulator)
    assert foreign.model is not None
    assert prepared_model(CONFIG) is None
    probe = SfiExperiment(CONFIG)
    assert prepared_model(CONFIG) is probe.model
    assert prepared_model(replace(CONFIG, drain_cycles=999)) is None
    assert prepared_model(replace(CONFIG, backend="bitplane")) is None
    del probe
    gc.collect()
    assert prepared_model(CONFIG) is None, "the registry must be weak"


def test_installed_experiment_matches_prepared(experiment):
    installed = SfiExperiment(experiment.config, model=experiment.model)
    assert installed.suite == experiment.suite
    assert installed.references == experiment.references
    assert installed.core.snapshot() == experiment.emulator._checkpoints[
        experiment._ckpt_name(len(experiment.suite) - 1)]
    assert installed.run_campaign(SITES, seed=SEED).records == \
        experiment.run_campaign(SITES, seed=SEED).records


# ----------------------------------------------------------------------
# Shipped-model differential: pool workers with and without the model.

@pytest.mark.parametrize("backend", ["scalar", "bitplane"])
def test_shipped_model_matches_serial_and_unshipped(backend, tmp_path,
                                                    monkeypatch, shipped):
    config = replace(CONFIG, backend=backend)
    probe, serial, exits = _serial(config, SITES, SEED)
    serial_journal = tmp_path / "serial.jsonl"
    records = run_parallel_campaign(
        config, SITES, seed=SEED, workers=1,
        population_bits=len(probe.latch_map), journal=serial_journal).records
    assert records == serial

    with_model = tmp_path / "shipped.jsonl"
    assert _pool(config, SITES, SEED, with_model, probe) == serial
    assert shipped[-1] is not None, "the probe's model must ship"

    monkeypatch.setattr(campaign, "_LAST_PREPARED", None)
    without_model = tmp_path / "prepared.jsonl"
    assert _pool(config, SITES, SEED, without_model, probe) == serial
    assert shipped[-1] is None

    assert _journal(with_model) == _journal(without_model) \
        == _journal(serial_journal)
    assert _journal_exits(with_model) == exits
    if backend == "bitplane":
        assert any(exit.get("exit", "").startswith("wave-")
                   for exit in exits.values())


def test_sigkilled_worker_reloads_shipped_model(tmp_path, monkeypatch,
                                                shipped):
    log = tmp_path / "seeded.log"
    monkeypatch.setenv(_MARKER_ENV, str(tmp_path / "kill.marker"))
    monkeypatch.setenv(_SEEDED_LOG_ENV, str(log))
    probe, serial, _ = _serial(CONFIG, SITES, SEED)
    progress = _Retries()
    records = _pool(CONFIG, SITES, SEED, tmp_path / "run.jsonl", probe,
                    runner=seeded_sigkill_runner, max_retries=2,
                    progress=progress)
    assert records == serial
    assert any("died" in reason for reason in progress.retries)
    attempts = log.read_text().split()
    assert len(attempts) >= 3  # two shards plus the retry
    assert set(attempts) == {"seeded"}
    assert shipped[-1] is not None and not os.path.exists(shipped[-1])


def test_model_file_removed_after_raising_run(shipped):
    probe = SfiExperiment(CONFIG)
    with pytest.raises(RuntimeError, match="permanent worker fault"):
        run_parallel_campaign(CONFIG, SITES[:2], seed=SEED, workers=2,
                              population_bits=len(probe.latch_map),
                              max_retries=0, backoff_base=0.0,
                              runner=always_raising_runner)
    assert shipped and shipped[0] is not None
    assert not any(os.path.exists(path) for path in shipped)


def test_unreadable_model_file_fails_the_shard(tmp_path, monkeypatch):
    """A worker whose model file cannot be loaded reports a shard error
    (the retry path's input) and never falls back to re-preparing."""
    monkeypatch.setattr(supervisor, "_WORKER_EXPERIMENT", None)
    monkeypatch.setattr(supervisor, "_WORKER_CONFIG", None)
    monkeypatch.setattr(SfiExperiment, "_prepare", None)
    bogus = tmp_path / "model.pickle"
    bogus.write_bytes(b"not a pickle")
    messages = queue.Queue()
    supervisor._shard_worker(always_raising_runner, CONFIG, 7, [], SEED,
                             messages, str(bogus))
    kind, shard_id, reason = messages.get_nowait()
    assert (kind, shard_id) == ("error", 7)
    assert "UnpicklingError" in reason
    assert messages.empty() and supervisor._WORKER_EXPERIMENT is None


def test_unequal_config_never_ships(tmp_path, shipped):
    other = replace(CONFIG, drain_cycles=1200)
    probe = SfiExperiment(CONFIG)
    _, serial, _ = _serial(other, SITES[:4], SEED)
    SfiExperiment(CONFIG)  # the registry's last live experiment again
    records = _pool(other, SITES[:4], SEED, tmp_path / "run.jsonl", probe)
    assert records == serial
    assert shipped == [None]


def test_serial_journal_campaign_runs_reference_once(tmp_path, monkeypatch):
    """``--workers 1 --journal``: the probe prepares, the supervised
    serial path installs its model instead of preparing again."""
    monkeypatch.setattr(supervisor, "_WORKER_EXPERIMENT", None)
    monkeypatch.setattr(supervisor, "_WORKER_CONFIG", None)
    calls = []
    real = SfiExperiment._checked_reference

    def counting(self, testcase):
        calls.append(testcase.seed)
        return real(self, testcase)

    monkeypatch.setattr(SfiExperiment, "_checked_reference", counting)
    code = cli.main(["campaign", "--flips", "6", "--suite-size", "2",
                     "--seed", "3", "--workers", "1", "--json",
                     "--journal", str(tmp_path / "run.jsonl")])
    assert code == 0
    assert len(calls) == 2 and len(set(calls)) == 2
    assert supervisor._WORKER_EXPERIMENT.model is not None
