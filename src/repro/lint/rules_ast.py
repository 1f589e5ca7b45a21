"""AST lint passes: determinism, worker safety, naming.

These are *domain* rules, not general style.  The campaign engine
guarantees bit-identical results for any worker count and across
kill/resume (PR 1); that guarantee is only as strong as the absence of
hidden entropy in the simulation packages.  Each rule names the exact
leak it closes:

* ``REPRO-D01`` unseeded randomness — module-level ``random.*`` draws
  and ``random.Random()`` with no seed.  Every drawing function must
  take an explicit ``random.Random`` (or derive one from the campaign
  seed), or two runs of the same campaign diverge.
* ``REPRO-D02`` wall clock — ``time.time()`` / ``datetime.now()`` and
  friends inside simulation code.  Monotonic/perf counters are allowed:
  they feed telemetry, never simulated state.
* ``REPRO-D03`` ``id()`` escape — CPython addresses vary run to run;
  an ``id()`` that reaches a string, a seed, arithmetic or a return
  value is nondeterminism (identity-map keying ``d[id(x)]`` is fine).
* ``REPRO-D04`` unordered ``set`` iteration — string hashing is
  randomized per process (PYTHONHASHSEED), so iterating a set into
  sampled or serialized output reorders between runs unless sorted.
* ``REPRO-W01`` worker payload — lambdas, closures and bound methods
  handed to a process pool fail to pickle under the ``spawn`` start
  method; payloads must be module-level functions.
* ``REPRO-N01`` metric naming — registry series must follow the
  Prometheus-flavoured convention the exporters and CI smoke assert.
* ``REPRO-N02`` event naming — event enums serialize their values into
  journals and trace logs; kebab-case is the wire format.
* ``REPRO-S01`` schema drift — a module that declares ``SCHEMA_DDL``
  must keep ``SCHEMA_FINGERPRINT`` equal to the digest of
  ``(SCHEMA_VERSION, SCHEMA_DDL)``.  Editing warehouse DDL without
  refreshing both is how two builds end up writing incompatible stores
  under the same version number.

The analysis is syntactic and import-alias aware (``import random as
r`` does not evade it) but performs no cross-module data-flow; the
policy table (:mod:`repro.lint.policy`) and inline
``# repro-lint: allow[RULE]`` markers handle the deliberate exceptions.
"""

from __future__ import annotations

import ast
import hashlib
import re

from repro.lint.findings import Finding, Severity
from repro.lint.policy import ALL_GROUPS, RuleGroup

# --- REPRO-D01 ---------------------------------------------------------
#: Module-level drawing functions on the shared, implicitly-seeded
#: singleton (calling any of these makes results depend on import order
#: and process history).
_RANDOM_DRAWS = frozenset({
    "random", "randrange", "randint", "randbytes", "getrandbits",
    "choice", "choices", "sample", "shuffle", "uniform", "triangular",
    "gauss", "normalvariate", "lognormvariate", "expovariate",
    "betavariate", "gammavariate", "paretovariate", "vonmisesvariate",
    "weibullvariate", "binomialvariate", "seed", "setstate",
})

# --- REPRO-D02 ---------------------------------------------------------
#: Wall-clock reads.  perf_counter/monotonic/process_time/sleep are
#: deliberately NOT here: they are telemetry clocks whose values never
#: enter simulated state.
_TIME_BANNED = frozenset({
    "time", "time_ns", "localtime", "gmtime", "ctime", "asctime",
    "strftime", "mktime",
})
_DATETIME_BANNED = frozenset({"now", "today", "utcnow"})
_DATETIME_CLASSES = frozenset({"datetime", "date"})

# --- REPRO-W01 ---------------------------------------------------------
_POOL_METHODS = frozenset({
    "apply", "apply_async", "map_async", "imap", "imap_unordered",
    "starmap", "starmap_async", "submit",
})
_POOLISH_RECEIVERS = ("pool", "executor")
#: Annotation heads that survive ``json.dumps`` untouched.  Transport
#: message dataclasses (``*Message``) cross process boundaries as JSON
#: frames, so a field typed as a set, bytes or a domain object would
#: break the wire the first time it was populated.
_JSON_SAFE_ANNOTATIONS = frozenset({
    "str", "int", "float", "bool", "None", "dict", "list", "tuple",
    "Dict", "List", "Tuple", "Optional", "Union", "Any",
})

# --- REPRO-N01 ---------------------------------------------------------
_METRIC_CTORS = frozenset({"counter", "gauge", "histogram"})
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_METRIC_PREFIXES = ("sfi_", "core_", "repro_")
_HISTOGRAM_SUFFIXES = ("_seconds", "_bytes", "_cycles", "_bits", "_lanes")
#: Warehouse metrics get a narrower namespace so dashboards can select
#: the ingest pipeline with one prefix match.
_WAREHOUSE_METRIC_PREFIXES = ("sfi_ingest_", "sfi_warehouse_")
#: Same idea for the fleet-telemetry modules: the coordinator's own
#: accounting and the convergence gauges each own a prefix, so a
#: monitor can split worker-streamed series from fold-side series.
_PATH_METRIC_PREFIXES = {
    "obs/fleet.py": ("sfi_fleet_",),
    "obs/convergence.py": ("sfi_convergence_",),
}

# --- REPRO-N02 ---------------------------------------------------------
_EVENT_VALUE_RE = re.compile(r"^[a-z][a-z0-9-]*$")
# Enum classes whose values are serialized wire format: machine events,
# the provenance vocabulary (masking causes, taint node kinds), and the
# fleet span phases stored in .spans sidecars and the warehouse.
_SERIALIZED_ENUM_MARKERS = ("Event", "Taint", "Masking", "Phase")

# --- REPRO-S01 ---------------------------------------------------------
_SCHEMA_CONSTANTS = ("SCHEMA_VERSION", "SCHEMA_DDL", "SCHEMA_FINGERPRINT")


def _schema_fingerprint(version: object, ddl: tuple) -> str:
    """Mirror of ``repro.warehouse.schema.compute_fingerprint``.

    Duplicated on purpose: the lint pass must have no import edge into
    the code it audits (a warehouse module broken enough to need the
    rule must not be able to break the rule).
    """
    blob = "\n".join([str(version), *(" ".join(s.split()) for s in ddl)])
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()[:16]


_ALLOW_RE = re.compile(r"#\s*repro-lint:\s*allow\[([A-Z0-9*,\- ]+)\]")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in {"set", "frozenset"})


def _terminal_name(node: ast.AST) -> str:
    """Last identifier of a Name/Attribute chain (for receiver sniffs)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


class _FileChecker(ast.NodeVisitor):
    """One pass over one parsed module."""

    def __init__(self, relpath: str, groups: frozenset[RuleGroup]) -> None:
        self.relpath = relpath
        self.groups = groups
        self.findings: list[Finding] = []
        # Alias maps populated from import statements anywhere in the
        # file (function-local imports count: the draw they enable is
        # just as nondeterministic).
        self.random_aliases: set[str] = set()
        self.time_aliases: set[str] = set()
        self.datetime_aliases: set[str] = set()
        self.random_from: dict[str, str] = {}    # local name -> original
        self.time_from: set[str] = set()
        self.datetime_class_names: set[str] = set()
        self.random_ctor_names: set[str] = set()
        # Nested-function tracking for REPRO-W01 closure payloads.
        self._function_stack: list[set[str]] = []
        self._parents: dict[ast.AST, ast.AST] = {}

    # -- plumbing ------------------------------------------------------

    def check(self, tree: ast.Module) -> list[Finding]:
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self._collect_imports(tree)
        self.visit(tree)
        if RuleGroup.SCHEMA in self.groups:
            self._check_schema_constants(tree)
        return self.findings

    def _report(self, rule: str, severity: Severity, category: str,
                node: ast.AST, message: str) -> None:
        self.findings.append(Finding(
            rule=rule, severity=severity, category=category,
            path=self.relpath, line=getattr(node, "lineno", 0),
            message=message))

    def _collect_imports(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "random":
                        self.random_aliases.add(local)
                    elif alias.name == "time":
                        self.time_aliases.add(local)
                    elif alias.name == "datetime":
                        self.datetime_aliases.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "random":
                    for alias in node.names:
                        local = alias.asname or alias.name
                        if alias.name == "Random":
                            self.random_ctor_names.add(local)
                        elif alias.name in _RANDOM_DRAWS | {"SystemRandom"}:
                            self.random_from[local] = alias.name
                elif node.module == "time":
                    for alias in node.names:
                        if alias.name in _TIME_BANNED:
                            self.time_from.add(alias.asname or alias.name)
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in _DATETIME_CLASSES:
                            self.datetime_class_names.add(
                                alias.asname or alias.name)

    # -- scope tracking (REPRO-W01 closures) ---------------------------

    def _visit_function(self, node) -> None:
        if self._function_stack:
            self._function_stack[-1].add(node.name)
        self._function_stack.append(set())
        self.generic_visit(node)
        self._function_stack.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _is_enclosing_local_def(self, name: str) -> bool:
        return any(name in scope for scope in self._function_stack[:-1]
                   ) or (bool(self._function_stack)
                         and name in self._function_stack[-1])

    # -- determinism ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if RuleGroup.DETERMINISM in self.groups:
            self._check_random_call(node)
            self._check_clock_call(node)
            self._check_id_call(node)
            self._check_set_consumer(node)
        if RuleGroup.WORKER_SAFETY in self.groups:
            self._check_worker_payload(node)
        if RuleGroup.NAMING in self.groups:
            self._check_metric_name(node)
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in self.random_aliases:
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        self._report(
                            "REPRO-D01", Severity.ERROR, "determinism", node,
                            "random.Random() with no seed is implicitly "
                            "seeded from the OS; pass an explicit seed")
                elif func.attr == "SystemRandom":
                    self._report(
                        "REPRO-D01", Severity.ERROR, "determinism", node,
                        "random.SystemRandom is OS entropy and can never "
                        "be replayed; use a seeded random.Random")
                elif func.attr in _RANDOM_DRAWS:
                    self._report(
                        "REPRO-D01", Severity.ERROR, "determinism", node,
                        f"random.{func.attr}() draws from the shared "
                        "module singleton; take an explicit "
                        "random.Random instead")
        elif isinstance(func, ast.Name):
            if func.id in self.random_from:
                original = self.random_from[func.id]
                self._report(
                    "REPRO-D01", Severity.ERROR, "determinism", node,
                    f"random.{original}() draws from the shared module "
                    "singleton; take an explicit random.Random instead")
            elif (func.id in self.random_ctor_names
                    and not node.args and not node.keywords):
                self._report(
                    "REPRO-D01", Severity.ERROR, "determinism", node,
                    "Random() with no seed is implicitly seeded from "
                    "the OS; pass an explicit seed")

    def _check_clock_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if (func.value.id in self.time_aliases
                    and func.attr in _TIME_BANNED):
                self._report(
                    "REPRO-D02", Severity.ERROR, "determinism", node,
                    f"time.{func.attr}() is wall clock; simulation code "
                    "must be time-independent (telemetry may use "
                    "perf_counter/monotonic via repro.obs)")
            elif (func.value.id in self.datetime_class_names
                    and func.attr in _DATETIME_BANNED):
                self._report(
                    "REPRO-D02", Severity.ERROR, "determinism", node,
                    f"datetime.{func.attr}() is wall clock; simulation "
                    "code must be time-independent")
        elif isinstance(func, ast.Attribute):
            # datetime.datetime.now() / dt.date.today() chains.
            inner = func.value
            if (func.attr in _DATETIME_BANNED
                    and isinstance(inner, ast.Attribute)
                    and inner.attr in _DATETIME_CLASSES
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id in self.datetime_aliases):
                self._report(
                    "REPRO-D02", Severity.ERROR, "determinism", node,
                    f"datetime.{inner.attr}.{func.attr}() is wall clock; "
                    "simulation code must be time-independent")
        elif isinstance(func, ast.Name) and func.id in self.time_from:
            self._report(
                "REPRO-D02", Severity.ERROR, "determinism", node,
                f"{func.id}() (from time) is wall clock; simulation "
                "code must be time-independent")

    def _check_id_call(self, node: ast.Call) -> None:
        if not (isinstance(node.func, ast.Name) and node.func.id == "id"
                and len(node.args) == 1 and not node.keywords):
            return
        parent = self._parents.get(node)
        # Identity-map keying is the legitimate idiom: d[id(x)],
        # d.get(id(x)), membership and equality tests.
        if isinstance(parent, (ast.Subscript, ast.Compare)):
            return
        if isinstance(parent, ast.Call) and parent is not node:
            callee = _terminal_name(parent.func)
            if callee in {"get", "pop", "setdefault", "add", "discard",
                          "remove"}:
                return
            self._report(
                "REPRO-D03", Severity.ERROR, "determinism", node,
                "id() is a per-run CPython address; passing it onward "
                "(formatting, seeding, serialization) is nondeterministic "
                "— key an identity dict instead")
            return
        if isinstance(parent, (ast.FormattedValue, ast.JoinedStr, ast.BinOp,
                               ast.Return, ast.keyword)):
            self._report(
                "REPRO-D03", Severity.ERROR, "determinism", node,
                "id() is a per-run CPython address and must not escape "
                "into strings, arithmetic or return values")

    def _check_set_consumer(self, node: ast.Call) -> None:
        if (isinstance(node.func, ast.Name)
                and node.func.id in {"list", "tuple", "enumerate", "iter"}
                and node.args and _is_set_expr(node.args[0])):
            self._report(
                "REPRO-D04", Severity.ERROR, "determinism", node,
                f"{node.func.id}() over a set materializes hash order, "
                "which varies per process (PYTHONHASHSEED); wrap the set "
                "in sorted()")

    def visit_For(self, node: ast.For) -> None:
        if RuleGroup.DETERMINISM in self.groups and _is_set_expr(node.iter):
            self._report(
                "REPRO-D04", Severity.ERROR, "determinism", node.iter,
                "iterating a set uses hash order, which varies per "
                "process (PYTHONHASHSEED); wrap the set in sorted()")
        self.generic_visit(node)

    def _visit_comprehension_holder(self, node) -> None:
        if RuleGroup.DETERMINISM in self.groups:
            for comp in node.generators:
                if _is_set_expr(comp.iter):
                    self._report(
                        "REPRO-D04", Severity.ERROR, "determinism",
                        comp.iter,
                        "comprehension over a set uses hash order, which "
                        "varies per process (PYTHONHASHSEED); wrap the "
                        "set in sorted()")
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_holder
    visit_SetComp = _visit_comprehension_holder
    visit_DictComp = _visit_comprehension_holder
    visit_GeneratorExp = _visit_comprehension_holder

    # -- worker safety -------------------------------------------------

    def _payload_problem(self, payload: ast.AST) -> str | None:
        if isinstance(payload, ast.Lambda):
            return "a lambda"
        if (isinstance(payload, ast.Attribute)
                and isinstance(payload.value, ast.Name)
                and payload.value.id == "self"):
            return f"the bound method self.{payload.attr}"
        if (isinstance(payload, ast.Name)
                and self._is_enclosing_local_def(payload.id)):
            return f"the nested function {payload.id}()"
        return None

    def _check_worker_payload(self, node: ast.Call) -> None:
        func = node.func
        payload: ast.AST | None = None
        if _terminal_name(func) == "Process":
            for kw in node.keywords:
                if kw.arg == "target":
                    payload = kw.value
        elif isinstance(func, ast.Attribute):
            receiver = _terminal_name(func.value).lower()
            poolish = any(hint in receiver for hint in _POOLISH_RECEIVERS)
            if func.attr in _POOL_METHODS or (func.attr == "map" and poolish):
                if node.args:
                    payload = node.args[0]
        if payload is None:
            return
        problem = self._payload_problem(payload)
        if problem is not None:
            self._report(
                "REPRO-W01", Severity.ERROR, "worker-safety", node,
                f"supervisor payload is {problem}, which cannot pickle "
                "across the spawn start method; use a module-level "
                "function")

    # -- naming --------------------------------------------------------

    def _check_metric_name(self, node: ast.Call) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr in _METRIC_CTORS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            return
        name = node.args[0].value
        kind = func.attr
        problems: list[str] = []
        if not _METRIC_NAME_RE.match(name):
            problems.append("must match [a-z][a-z0-9_]*")
        if not name.startswith(_METRIC_PREFIXES):
            problems.append("must carry a sfi_/core_/repro_ prefix")
        if kind == "counter" and not name.endswith("_total"):
            problems.append("counters must end in _total")
        if kind == "histogram" and not name.endswith(_HISTOGRAM_SUFFIXES):
            problems.append("histograms must end in a unit suffix "
                            "(_seconds/_bytes/_cycles/_bits/_lanes)")
        if (self.relpath.startswith("warehouse/")
                and not name.startswith(_WAREHOUSE_METRIC_PREFIXES)):
            problems.append("warehouse metrics must carry a "
                            "sfi_ingest_/sfi_warehouse_ prefix")
        scoped = _PATH_METRIC_PREFIXES.get(self.relpath)
        if scoped and not name.startswith(scoped):
            problems.append(f"metrics in {self.relpath} must carry a "
                            + "/".join(scoped) + " prefix")
        if problems:
            self._report(
                "REPRO-N01", Severity.WARNING, "naming", node,
                f"metric {kind} name {name!r}: " + "; ".join(problems))

    # -- schema drift --------------------------------------------------

    def _check_schema_constants(self, tree: ast.Module) -> None:
        """REPRO-S01: a module declaring ``SCHEMA_DDL`` must keep
        ``SCHEMA_FINGERPRINT`` equal to the digest of
        ``(SCHEMA_VERSION, SCHEMA_DDL)``."""
        found: dict[str, tuple[ast.stmt, object]] = {}
        for stmt in tree.body:
            if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                continue
            name = stmt.targets[0].id
            if name not in _SCHEMA_CONSTANTS:
                continue
            try:
                found[name] = (stmt, ast.literal_eval(stmt.value))
            except (ValueError, TypeError, SyntaxError):
                self._report(
                    "REPRO-S01", Severity.ERROR, "schema", stmt,
                    f"{name} must be a pure literal so the schema "
                    "fingerprint can be recomputed without importing "
                    "the module")
        if "SCHEMA_DDL" not in found:
            return
        missing = [name for name in _SCHEMA_CONSTANTS if name not in found]
        if missing:
            self._report(
                "REPRO-S01", Severity.ERROR, "schema", found["SCHEMA_DDL"][0],
                "module declares SCHEMA_DDL but not "
                + "/".join(missing)
                + "; versioned stores need all three constants")
            return
        node, declared = found["SCHEMA_FINGERPRINT"]
        version = found["SCHEMA_VERSION"][1]
        ddl = found["SCHEMA_DDL"][1]
        expected = _schema_fingerprint(version, ddl)
        if declared != expected:
            self._report(
                "REPRO-S01", Severity.ERROR, "schema", node,
                f"SCHEMA_FINGERPRINT {declared!r} does not match the "
                f"declared DDL (expected {expected!r}); a DDL change "
                "must bump SCHEMA_VERSION and refresh the fingerprint")

    # -- worker safety: transport message fields -----------------------

    def _annotation_json_safe(self, annotation: ast.AST) -> bool:
        """Conservatively true when every reachable annotation head is a
        JSON-native type.  ``X | None`` unions, ``list[int]`` subscripts
        and quoted annotations are unwrapped; anything else (set,
        frozenset, bytes, domain classes) is flagged."""
        if isinstance(annotation, ast.Constant):
            if annotation.value is None:
                return True
            if isinstance(annotation.value, str):
                try:
                    parsed = ast.parse(annotation.value, mode="eval").body
                except SyntaxError:
                    return True  # unparseable forward ref: no claim
                return self._annotation_json_safe(parsed)
            return False
        if isinstance(annotation, ast.Name):
            return annotation.id in _JSON_SAFE_ANNOTATIONS
        if isinstance(annotation, ast.Attribute):
            return annotation.attr in _JSON_SAFE_ANNOTATIONS
        if isinstance(annotation, ast.Subscript):
            if not self._annotation_json_safe(annotation.value):
                return False
            inner = annotation.slice
            parts = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            return all(self._annotation_json_safe(part) for part in parts)
        if isinstance(annotation, ast.BinOp) \
                and isinstance(annotation.op, ast.BitOr):
            return (self._annotation_json_safe(annotation.left)
                    and self._annotation_json_safe(annotation.right))
        return False

    def _check_message_fields(self, node: ast.ClassDef) -> None:
        is_message = node.name.endswith("Message") or any(
            _terminal_name(base).endswith("Message") for base in node.bases)
        if not is_message:
            return
        decorated = any(
            _terminal_name(dec.func if isinstance(dec, ast.Call) else dec)
            == "dataclass" for dec in node.decorator_list)
        if not decorated:
            return
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            if stmt.target.id.isupper():
                continue  # class-level constants (TYPE) are not fields
            if not self._annotation_json_safe(stmt.annotation):
                rendered = ast.unparse(stmt.annotation)
                self._report(
                    "REPRO-W01", Severity.ERROR, "worker-safety", stmt,
                    f"transport message field {node.name}."
                    f"{stmt.target.id}: {rendered} is not JSON-"
                    "serializable; message dataclasses cross the wire "
                    "as JSON frames — use scalars, dicts or lists")

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if RuleGroup.WORKER_SAFETY in self.groups:
            self._check_message_fields(node)
        if RuleGroup.NAMING in self.groups and any(
                marker in node.name for marker in _SERIALIZED_ENUM_MARKERS):
            enum_based = any(
                _terminal_name(base).endswith("Enum") for base in node.bases)
            if enum_based:
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and isinstance(stmt.value, ast.Constant)
                            and isinstance(stmt.value.value, str)
                            and not _EVENT_VALUE_RE.match(stmt.value.value)):
                        self._report(
                            "REPRO-N02", Severity.WARNING, "naming", stmt,
                            f"event value {stmt.value.value!r} in "
                            f"{node.name} is serialized into journals and "
                            "trace logs; use kebab-case")
        self.generic_visit(node)


def _inline_allows(source: str) -> dict[int, set[str]]:
    """Line -> rule ids suppressed by ``# repro-lint: allow[...]``."""
    allows: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            allows[lineno] = rules
    return allows


def lint_source(source: str, relpath: str,
                groups: frozenset[RuleGroup] = ALL_GROUPS,
                ) -> list[Finding]:
    """Run every enabled AST rule over one module's source text."""
    try:
        tree = ast.parse(source, filename=relpath)
    except SyntaxError as exc:
        return [Finding(
            rule="REPRO-E00", severity=Severity.ERROR, category="parse",
            path=relpath, line=exc.lineno or 0,
            message=f"syntax error: {exc.msg}")]
    findings = _FileChecker(relpath, groups).check(tree)
    allows = _inline_allows(source)
    if not allows:
        return findings
    kept = []
    for finding in findings:
        allowed = allows.get(finding.line, set())
        if finding.rule in allowed or "*" in allowed:
            continue
        kept.append(finding)
    return kept
