"""AST lint passes: determinism, worker-safety and naming rules."""

from __future__ import annotations

import json

import pytest

from repro.lint import (
    Finding,
    Severity,
    lint_source,
    render_jsonl,
    render_text,
)
from repro.lint.policy import DEFAULT_POLICY, RuleGroup, groups_for


def rules_of(source: str, relpath: str = "repro/cpu/x.py") -> list[str]:
    return [finding.rule for finding in lint_source(source, relpath)]


class TestUnseededRandom:
    def test_module_singleton_draw(self):
        assert rules_of("import random\nx = random.random()\n") == [
            "REPRO-D01"]

    def test_aliased_import_does_not_evade(self):
        assert rules_of("import random as rm\nx = rm.randrange(4)\n") == [
            "REPRO-D01"]

    def test_from_import_draw(self):
        src = "from random import choice as pick\nx = pick([1, 2])\n"
        assert rules_of(src) == ["REPRO-D01"]

    def test_unseeded_ctor(self):
        assert rules_of("import random\nr = random.Random()\n") == [
            "REPRO-D01"]
        assert rules_of(
            "from random import Random\nr = Random()\n") == ["REPRO-D01"]

    def test_system_random(self):
        assert rules_of("import random\nr = random.SystemRandom()\n") == [
            "REPRO-D01"]

    def test_module_seed_call(self):
        assert rules_of("import random\nrandom.seed(1)\n") == ["REPRO-D01"]

    def test_seeded_ctor_and_instance_draws_are_clean(self):
        src = ("import random\n"
               "rng = random.Random('sfi:1:2:0')\n"
               "x = rng.randrange(10)\n")
        assert rules_of(src) == []


class TestWallClock:
    def test_time_time(self):
        assert rules_of("import time\nt = time.time()\n") == ["REPRO-D02"]

    def test_from_time_import(self):
        assert rules_of("from time import time\nt = time()\n") == [
            "REPRO-D02"]

    def test_datetime_now_chain(self):
        src = "import datetime\nt = datetime.datetime.now()\n"
        assert rules_of(src) == ["REPRO-D02"]

    def test_from_datetime_import(self):
        src = "from datetime import datetime\nt = datetime.utcnow()\n"
        assert rules_of(src) == ["REPRO-D02"]

    def test_telemetry_clocks_allowed(self):
        src = ("import time\n"
               "a = time.perf_counter()\n"
               "b = time.monotonic()\n"
               "time.sleep(0.1)\n")
        assert rules_of(src) == []


class TestIdEscape:
    def test_id_in_fstring(self):
        src = "def f(x):\n    return f'obj-{id(x)}'\n"
        assert rules_of(src) == ["REPRO-D03"]

    def test_id_as_seed(self):
        src = ("import random\n"
               "def f(x):\n"
               "    return random.Random(id(x))\n")
        assert rules_of(src) == ["REPRO-D03"]

    def test_id_arithmetic(self):
        assert rules_of("def f(x):\n    return id(x) % 7\n") == ["REPRO-D03"]

    def test_identity_map_key_allowed(self):
        src = ("def f(d, x):\n"
               "    d[id(x)] = 1\n"
               "    return d[id(x)], d.get(id(x)), id(x) in d\n")
        assert rules_of(src) == []


class TestSetIteration:
    def test_for_over_set_call(self):
        assert rules_of("for x in set([2, 1]):\n    print(x)\n") == [
            "REPRO-D04"]

    def test_list_of_set(self):
        assert rules_of("y = list({'b', 'a'})\n") == ["REPRO-D04"]

    def test_comprehension_over_set(self):
        assert rules_of("y = [x for x in {'b', 'a'}]\n") == ["REPRO-D04"]

    def test_sorted_set_allowed(self):
        src = ("y = sorted(set(['b', 'a']))\n"
               "n = len({'b', 'a'})\n"
               "m = max(set([1, 2]))\n")
        assert rules_of(src) == []


class TestWorkerPayload:
    def test_lambda_target(self):
        src = ("from multiprocessing import Process\n"
               "p = Process(target=lambda: 1)\n")
        assert rules_of(src) == ["REPRO-W01"]

    def test_bound_method_to_pool(self):
        src = ("class Driver:\n"
               "    def go(self, pool):\n"
               "        pool.apply_async(self.run_one)\n")
        assert rules_of(src) == ["REPRO-W01"]

    def test_nested_function_target(self):
        src = ("import multiprocessing as mp\n"
               "def launch():\n"
               "    def worker():\n"
               "        pass\n"
               "    mp.Process(target=worker)\n")
        assert rules_of(src) == ["REPRO-W01"]

    def test_pool_map_receiver_heuristic(self):
        src = ("def run(pool):\n"
               "    pool.map(lambda x: x, [1, 2])\n")
        assert rules_of(src) == ["REPRO-W01"]
        # .map on a non-pool receiver is someone else's map.
        assert rules_of("def run(d):\n    d.map(lambda x: x, [1])\n") == []

    def test_module_level_function_clean(self):
        src = ("import multiprocessing as mp\n"
               "def worker():\n"
               "    pass\n"
               "def launch():\n"
               "    mp.Process(target=worker)\n")
        assert rules_of(src) == []


class TestMessageFields:
    """REPRO-W01 on transport message dataclasses: fields must be
    JSON-serializable or they break the wire when populated."""

    def test_set_field_flagged(self):
        src = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\n"
               "class PeerMessage:\n"
               "    peers: set[str]\n")
        assert rules_of(src) == ["REPRO-W01"]

    def test_bytes_and_domain_class_flagged(self):
        src = ("from dataclasses import dataclass\n"
               "@dataclass\n"
               "class BlobMessage:\n"
               "    blob: bytes = b''\n"
               "    record: InjectionRecord = None\n")
        assert rules_of(src) == ["REPRO-W01", "REPRO-W01"]

    def test_message_subclass_checked(self):
        src = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\n"
               "class Extra(Message):\n"
               "    kinds: frozenset = frozenset()\n")
        assert rules_of(src) == ["REPRO-W01"]

    def test_json_native_fields_clean(self):
        src = ("from dataclasses import dataclass, field\n"
               "@dataclass(frozen=True)\n"
               "class LeaseMessage:\n"
               "    TYPE = 'lease'\n"
               "    token: int = -1\n"
               "    items: list = field(default_factory=list)\n"
               "    record: dict = field(default_factory=dict)\n"
               "    sizes: list[int] = field(default_factory=list)\n"
               "    note: str | None = None\n")
        assert rules_of(src) == []

    def test_non_dataclass_and_non_message_untouched(self):
        # No @dataclass decorator: fields are ordinary attributes.
        src = ("class QueueMessage:\n"
               "    peers: set = set()\n")
        assert rules_of(src) == []
        # Not a *Message class: the wire-format contract does not apply.
        src = ("from dataclasses import dataclass\n"
               "@dataclass\n"
               "class ShardState:\n"
               "    accepted: set = None\n")
        assert rules_of(src) == []


class TestNaming:
    def test_metric_prefix_and_suffix(self):
        src = "def f(reg):\n    return reg.counter('queue_depth')\n"
        findings = lint_source(src, "repro/obs/x.py")
        assert [f.rule for f in findings] == ["REPRO-N01"]
        assert findings[0].severity is Severity.WARNING

    def test_counter_needs_total(self):
        assert rules_of("def f(r):\n    r.counter('sfi_retries')\n") == [
            "REPRO-N01"]

    def test_histogram_needs_unit(self):
        assert rules_of("def f(r):\n    r.histogram('sfi_wall')\n") == [
            "REPRO-N01"]

    def test_conforming_names_clean(self):
        src = ("def f(r):\n"
               "    r.counter('sfi_injections_total')\n"
               "    r.gauge('core_workers_running')\n"
               "    r.histogram('repro_shard_wall_seconds')\n")
        assert rules_of(src) == []

    def test_bits_is_a_histogram_unit(self):
        # Infection footprints are measured in bits, not bytes.
        src = ("def f(r):\n"
               "    r.histogram('sfi_infection_peak_bits')\n"
               "    r.histogram('sfi_detection_latency_cycles')\n")
        assert rules_of(src) == []

    def test_event_enum_values_kebab(self):
        src = ("import enum\n"
               "class TraceEventKind(enum.Enum):\n"
               "    DETECTED = 'Error_Detected'\n")
        assert rules_of(src) == ["REPRO-N02"]
        clean = ("import enum\n"
                 "class TraceEventKind(enum.Enum):\n"
                 "    DETECTED = 'error-detected'\n")
        assert rules_of(clean) == []

    def test_non_event_enum_untouched(self):
        # LatchKind-style enums carry the paper's uppercase vocabulary.
        src = ("import enum\n"
               "class LatchKind(enum.Enum):\n"
               "    FUNC = 'FUNC'\n")
        assert rules_of(src) == []

    def test_provenance_enum_values_kebab(self):
        # Masking/taint enums are serialized wire format like events.
        src = ("import enum\n"
               "class MaskingEvent(enum.Enum):\n"
               "    OVERWRITTEN = 'Overwritten'\n")
        assert rules_of(src) == ["REPRO-N02"]
        clean = ("import enum\n"
                 "class TaintNodeKind(enum.Enum):\n"
                 "    LATCH = 'latch'\n"
                 "class MaskingEvent(enum.Enum):\n"
                 "    ECC = 'ecc-corrected'\n")
        assert rules_of(clean) == []


class TestSchemaRule:
    """REPRO-S01: SCHEMA_FINGERPRINT must track (SCHEMA_VERSION, DDL)."""

    def _module(self, version=1, ddl="'CREATE TABLE t (x INTEGER)',",
                fingerprint=None) -> str:
        if fingerprint is None:
            from repro.lint.rules_ast import _schema_fingerprint
            fingerprint = _schema_fingerprint(
                version, ("CREATE TABLE t (x INTEGER)",))
        return (f"SCHEMA_VERSION = {version}\n"
                f"SCHEMA_DDL = ({ddl})\n"
                f"SCHEMA_FINGERPRINT = {fingerprint!r}\n")

    def test_consistent_constants_clean(self):
        assert rules_of(self._module(), "warehouse/schema.py") == []

    def test_stale_fingerprint_flagged(self):
        src = self._module(fingerprint="sha256:0000000000000000")
        findings = lint_source(src, "warehouse/schema.py")
        assert [f.rule for f in findings] == ["REPRO-S01"]
        assert "bump SCHEMA_VERSION" in findings[0].message

    def test_version_bump_without_refresh_flagged(self):
        # Bumping the version alone also invalidates the fingerprint.
        stale = self._module()  # fingerprint computed for version 1
        src = stale.replace("SCHEMA_VERSION = 1", "SCHEMA_VERSION = 2")
        assert rules_of(src, "warehouse/schema.py") == ["REPRO-S01"]

    def test_missing_companion_constants_flagged(self):
        src = "SCHEMA_DDL = ('CREATE TABLE t (x INTEGER)',)\n"
        findings = lint_source(src, "warehouse/schema.py")
        assert [f.rule for f in findings] == ["REPRO-S01"]
        assert "SCHEMA_VERSION" in findings[0].message

    def test_computed_constant_flagged(self):
        src = ("SCHEMA_VERSION = 1\n"
               "SCHEMA_DDL = tuple(x for x in ('a',))\n"
               "SCHEMA_FINGERPRINT = 'sha256:0'\n")
        findings = lint_source(src, "warehouse/schema.py")
        assert [f.rule for f in findings] == ["REPRO-S01"]
        assert "pure literal" in findings[0].message

    def test_modules_without_ddl_untouched(self):
        assert rules_of("SCHEMA_VERSION = 3\n", "warehouse/store.py") == []

    def test_shipped_schema_module_is_clean(self):
        from pathlib import Path
        import repro.warehouse.schema as schema_module
        source = Path(schema_module.__file__).read_text()
        assert rules_of(source, "warehouse/schema.py") == []

    def test_warehouse_metrics_need_ingest_prefix(self):
        src = "def f(r):\n    r.counter('sfi_rows_total')\n"
        assert rules_of(src, "warehouse/store.py") == ["REPRO-N01"]
        clean = "def f(r):\n    r.counter('sfi_ingest_rows_total')\n"
        assert rules_of(clean, "warehouse/store.py") == []
        # Outside the warehouse the broader prefixes still suffice.
        assert rules_of(src, "repro/obs/x.py") == []


class TestSuppressionAndPolicy:
    def test_inline_allow(self):
        src = ("import time\n"
               "t = time.time()  # repro-lint: allow[REPRO-D02]\n")
        assert rules_of(src) == []

    def test_inline_allow_is_rule_specific(self):
        src = ("import time\n"
               "t = time.time()  # repro-lint: allow[REPRO-D01]\n")
        assert rules_of(src) == ["REPRO-D02"]

    def test_policy_exempts_obs_from_determinism(self):
        groups = groups_for("obs/monitor.py")
        assert RuleGroup.DETERMINISM not in groups
        assert RuleGroup.WORKER_SAFETY in groups

    def test_policy_default_is_full_contract(self):
        assert groups_for("cpu/core.py") == frozenset(RuleGroup)

    def test_policy_warehouse_gets_schema_not_determinism(self):
        groups = groups_for("warehouse/schema.py")
        assert RuleGroup.SCHEMA in groups
        assert RuleGroup.DETERMINISM not in groups

    def test_policy_first_match_wins(self):
        assert groups_for("cli.py") != frozenset(RuleGroup)
        # A file merely *named* like the prefix in a deeper spot matches
        # the default row, not the cli row.
        assert groups_for("sfi/cli.py") == frozenset(RuleGroup)

    def test_exempt_group_skips_findings(self):
        src = "import time\nt = time.time()\n"
        findings = lint_source(src, "repro/obs/x.py",
                               groups=groups_for("obs/x.py"))
        assert findings == []

    def test_syntax_error_is_a_finding(self):
        findings = lint_source("def broken(:\n", "repro/cpu/x.py")
        assert [f.rule for f in findings] == ["REPRO-E00"]


class TestRendering:
    def _sample(self) -> list[Finding]:
        return [
            Finding("REPRO-N01", Severity.WARNING, "naming",
                    "repro/obs/x.py", 3, "bad metric"),
            Finding("REPRO-D02", Severity.ERROR, "determinism",
                    "repro/cpu/x.py", 9, "wall clock"),
        ]

    def test_text_orders_errors_first(self):
        text = render_text(self._sample())
        assert text.index("REPRO-D02") < text.index("REPRO-N01")
        assert "1 error(s), 1 warning(s)" in text

    def test_jsonl_round_trip(self):
        lines = render_jsonl(self._sample()).splitlines()
        parsed = [Finding.from_dict(json.loads(line)) for line in lines]
        assert set(parsed) == set(self._sample())

    def test_empty_jsonl_is_empty(self):
        assert render_jsonl([]) == ""


@pytest.mark.parametrize("row", DEFAULT_POLICY)
def test_policy_rows_have_reasons(row):
    assert row.reason, f"policy row {row.prefix!r} must explain itself"


class TestBitplanePolicy:
    def test_bitplane_backend_gets_full_contract(self):
        assert groups_for("emulator/bitplane.py") == frozenset(RuleGroup)

    def test_lanes_is_a_histogram_unit(self):
        # Wave occupancy is measured in plane lanes.
        src = "def f(r):\n    r.histogram('sfi_wave_occupancy_lanes')\n"
        assert rules_of(src) == []
        bad = "def f(r):\n    r.histogram('sfi_wave_occupancy')\n"
        assert rules_of(bad) == ["REPRO-N01"]
