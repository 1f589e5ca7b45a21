"""Span recorder for the campaign benchmark's traced runs.

Spans are recorded from here, around the public calls into each layer,
so ``src/`` carries no benchmark instrumentation.  A span holds its
name, phase (``setup`` while an ``SfiExperiment`` is being constructed,
else ``campaign``), the id of the trial it belongs to (the number of
records delivered before it opened), its start and end, and the index
of the span that was open when it started.  A layer's self time is its
span minus the spans of its children.  Spans stay in memory until
:meth:`SpanRecorder.write`.

:func:`traced_shard` is a shard runner for ``CampaignSupervisor``'s
``runner=`` parameter: spawned workers start from a fresh import, so the
parent's wrappers never reach them.  It installs the same wrappers in
the worker and writes the worker's spans to ``$PERFBENCH_SPAN_DIR``.
"""

from __future__ import annotations

import json
import os
import time

SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


class SpanRecorder:
    """In-memory spans plus per-(phase, name) self time and call counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, phase, trial, start, end, parent span index or -1)
        self.spans: list[tuple] = []
        # Open spans: [span index, start, time covered by children].
        self._stack: list[list] = []
        self._setup_depth = 0
        self.trial = 0
        self.self_s: dict[tuple[str, str], float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        self.counts: dict[tuple[str, str], int] = {}
        self._installed: list[tuple] = []

    @property
    def phase(self) -> str:
        return "setup" if self._setup_depth else "campaign"

    def count(self, key: str, value: int = 1,
              phase: str | None = None) -> None:
        slot = (phase or self.phase, key)
        self.counts[slot] = self.counts.get(slot, 0) + value

    def _wrap(self, owner, attr: str, name: str, on_result=None,
              setup: bool = False) -> None:
        original = getattr(owner, attr)
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        recorder = self
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if setup:
                recorder._setup_depth += 1
            phase = recorder.phase
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            frame[1] = start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if setup:
                    recorder._setup_depth -= 1
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                spans[index] = (name_id, phase, recorder.trial, start, end,
                                parent)
                slot = (phase, name)
                recorder.self_s[slot] = (recorder.self_s.get(slot, 0.0)
                                         + duration - frame[2])
                recorder.calls[slot] = recorder.calls.get(slot, 0) + 1
            if on_result is not None:
                on_result(phase, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    def install(self) -> None:
        """Wrap the public calls into every measured layer."""
        from repro.cpu.core import Power6Core
        from repro.emulator.awan import AwanEmulator
        from repro.emulator.bitplane import CompiledSchedule
        from repro.sfi import campaign
        from repro.sfi.storage import CampaignJournal

        def add(key, value):
            return lambda phase, args, result: self.count(
                key, value(args, result), phase)

        self._wrap(campaign.SfiExperiment, "__init__",
                   "sfi.experiment_init", setup=True)
        self._wrap(Power6Core, "state_digest", "cpu.state_digest")
        self._wrap(Power6Core, "snapshot", "cpu.snapshot")
        self._wrap(Power6Core, "restore", "cpu.restore")
        self._wrap(AwanEmulator, "clock", "emulator.clock",
                   add("cycles", lambda args, result: result))
        self._wrap(AwanEmulator, "restore_nearest", "emulator.restore_nearest",
                   add("ladder_hits", lambda args, result: int(result > 0)))
        self._wrap(AwanEmulator, "save_rung", "emulator.save_rung")
        self._wrap(AwanEmulator, "inject", "emulator.inject")
        self._wrap(AwanEmulator, "reload", "emulator.reload")
        self._wrap(campaign, "classify", "sfi.classify")
        self._wrap(campaign, "compile_netlist", "bitplane.compile_netlist")
        self._wrap(campaign, "make_suite", "avp.make_suite")
        self._wrap(CompiledSchedule, "resolve_wave", "bitplane.resolve_wave",
                   add("wave_lanes", lambda args, result: len(args[1])))
        self._wrap(CampaignJournal, "append", "storage.append")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def summary(self) -> dict:
        """Self time, inclusive time, calls and counts keyed
        ``phase:name``."""
        total_s: dict[str, float] = {}
        for name_id, phase, _trial, start, end, _parent in self.spans:
            key = f"{phase}:{self.names[name_id]}"
            total_s[key] = total_s.get(key, 0.0) + end - start
        return {
            "self_s": {f"{p}:{n}": v for (p, n), v in self.self_s.items()},
            "total_s": total_s,
            "calls": {f"{p}:{n}": v for (p, n), v in self.calls.items()},
            "counts": {f"{p}:{n}": v for (p, n), v in self.counts.items()},
        }

    def write(self, path: str, **extra) -> None:
        """Write every span and the summary as one JSON document."""
        payload = {"names": self.names, "spans": self.spans,
                   "summary": self.summary(), **extra}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def traced_shard(config, items, seed, emit) -> int:
    """Shard runner that traces the default ``run_shard`` in a worker."""
    from repro.sfi.supervisor import run_shard

    started = time.perf_counter()
    recorder = SpanRecorder()
    recorder.install()

    def counted(position, record):
        recorder.trial += 1
        emit(position, record)

    extra = getattr(emit, "extra", None)
    if extra is not None:
        def counted_extra(kind, position, payload):
            if kind == "fast":
                recorder.count("exit." + payload.get("exit", "none"))
            extra(kind, position, payload)
        counted.extra = counted_extra
    if getattr(emit, "metrics", None) is not None:
        counted.metrics = emit.metrics
    try:
        return run_shard(config, items, seed, counted)
    finally:
        recorder.uninstall()
        busy = time.perf_counter() - started
        recorder.write(
            os.path.join(os.environ[SPAN_DIR_ENV],
                         f"worker-{os.getpid()}-{len(items)}.json"),
            busy_s=busy, trials=recorder.trial)
