"""Per-path lint policy: which rule groups apply where.

Determinism rules are *domain* rules, not universal style: a wall-clock
read inside the simulation packages silently breaks the bit-identical
resume/replay guarantee, while the same read inside the observability
layer is the whole point of that layer.  The policy table makes each
exemption an explicit, reviewable line instead of scattered inline
pragmas.

Paths are matched relative to the lint root (the ``repro`` package
directory), first match wins, so more specific prefixes go first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class RuleGroup(enum.Enum):
    """The AST rule families a path can opt into."""

    DETERMINISM = "determinism"      # REPRO-D01..D04
    WORKER_SAFETY = "worker-safety"  # REPRO-W01
    NAMING = "naming"                # REPRO-N01..N02
    SCHEMA = "schema"                # REPRO-S01


ALL_GROUPS = frozenset(RuleGroup)

#: Model-level rule families that do not go through the per-path table:
#: they audit the *live machine*, not source files.  REPRO-A* (the
#: fault-space audit, :mod:`repro.lint.audit`) always runs; REPRO-G*
#: (the structural latch-graph rules, :mod:`repro.lint.structural`)
#: run under ``repro-sfi lint --structural`` and ratchet through the
#: same baseline as everything else — baseline entries of a family
#: whose pass did not run are exempt from staleness.
STRUCTURAL_RULES: dict[str, str] = {
    "REPRO-G01": "structurally-dead latches: never read, drive nothing "
                 "in any traced golden run (warning, per unit)",
    "REPRO-G02": "protection-coverage hole: parity-protected latch "
                 "consumed without its shadow ever being checked "
                 "(error, per latch)",
    "REPRO-G03": "scan-ring partition violation: latch on zero or "
                 "multiple scan rings (error, per latch)",
    "REPRO-G04": "functional write into scan-only MODE/GPTR state "
                 "(error, per latch)",
    "REPRO-G05": "dormant configuration: scan-only latches never read "
                 "by the workload suite (warning, per unit)",
}

#: Packages whose code runs inside (or feeds) the simulated machine —
#: the paper's reproducibility claim covers exactly these.
SIMULATION_PACKAGES = ("cpu", "isa", "sfi", "avp", "beam", "emulator",
                      "rtl", "workload", "stats", "analysis")


@dataclass(frozen=True)
class PathPolicy:
    """One row of the policy table.

    ``prefix`` matches the start of the ``/``-separated path relative to
    the lint root (``""`` matches everything — the default row).
    """

    prefix: str
    groups: frozenset[RuleGroup]
    reason: str = ""

    def matches(self, relpath: str) -> bool:
        if not self.prefix:
            return True
        return (relpath == self.prefix
                or relpath.startswith(self.prefix.rstrip("/") + "/"))


#: First match wins.  ``obs`` and the CLI are host-side: they read wall
#: clocks and tail files by design, but their worker payloads and metric
#: names still matter.
DEFAULT_POLICY: tuple[PathPolicy, ...] = (
    PathPolicy("emulator/bitplane.py", ALL_GROUPS,
               "bit-plane backend: full determinism contract (waves must "
               "be bit-identical to the scalar path)"),
    PathPolicy("obs",
               frozenset({RuleGroup.WORKER_SAFETY, RuleGroup.NAMING}),
               "telemetry layer: wall-clock reads are its purpose"),
    PathPolicy("cli.py",
               frozenset({RuleGroup.WORKER_SAFETY, RuleGroup.NAMING}),
               "host-side command front-end (timing banners, file tails)"),
    PathPolicy("lint",
               frozenset({RuleGroup.WORKER_SAFETY, RuleGroup.NAMING}),
               "analysis host tooling, never on a simulation path"),
    PathPolicy("warehouse",
               frozenset({RuleGroup.WORKER_SAFETY, RuleGroup.NAMING,
                          RuleGroup.SCHEMA}),
               "host-side result store: tails files by design, but its "
               "on-disk schema is versioned"),
    PathPolicy("", ALL_GROUPS,
               "simulation packages: full determinism contract"),
)


def groups_for(relpath: str,
               policy: tuple[PathPolicy, ...] = DEFAULT_POLICY,
               ) -> frozenset[RuleGroup]:
    """Rule groups enabled for one source file (first match wins)."""
    normalized = relpath.replace("\\", "/")
    for row in policy:
        if row.matches(normalized):
            return row.groups
    return ALL_GROUPS


def render_policy(policy: tuple[PathPolicy, ...] = DEFAULT_POLICY) -> str:
    """The table, for ``repro-sfi lint --show-policy`` and the docs."""
    lines = [f"{'path prefix':<12} {'rule groups':<40} reason"]
    for row in policy:
        groups = ",".join(sorted(group.value for group in row.groups))
        prefix = row.prefix or "(default)"
        lines.append(f"{prefix:<12} {groups:<40} {row.reason}")
    lines.append("")
    lines.append("model-level rules (not per-path; REPRO-G* need "
                 "--structural):")
    for rule in sorted(STRUCTURAL_RULES):
        lines.append(f"{rule:<12} {STRUCTURAL_RULES[rule]}")
    return "\n".join(lines)
