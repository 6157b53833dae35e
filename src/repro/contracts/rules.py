"""The determinism-contract rules.

Each rule is one class with an ``id``, a one-line ``title``, the
historical bug that motivates it (``rationale``), and a ``check`` that
pattern-matches one module's AST and yields diagnostics.  Rules are pure:
they read the :class:`~repro.contracts.engine.ModuleInfo` /
:class:`~repro.contracts.engine.Project` the engine built and never touch
the filesystem.  ``docs/contracts.md`` is the prose twin of this file --
add a rule there when adding one here.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.contracts.engine import (
    Diagnostic,
    ModuleInfo,
    Project,
    ancestors,
    enclosing_function,
    qualified_name,
)

__all__ = ["RULES", "Rule", "rule_ids"]


class Rule:
    """Base class: subclasses set ``id``/``title``/``rationale`` and
    implement ``check``."""

    id: str = ""
    title: str = ""
    rationale: str = ""
    #: dotted module names (exact or prefix) the rule never applies to.
    exempt: tuple[str, ...] = ()

    def applies(self, info: ModuleInfo) -> bool:
        for name in self.exempt:
            if info.module == name or info.module.startswith(name + "."):
                return False
        return not info.module.endswith(".__main__") or "__main__" not in self.exempt

    def check(self, info: ModuleInfo, project: Project) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diagnostic(self, info: ModuleInfo, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=info.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
        )


def _contains_binop(node: ast.expr) -> bool:
    return any(isinstance(child, ast.BinOp) for child in ast.walk(node))


def _in_main_guard(node: ast.AST) -> bool:
    """Whether ``node`` sits under ``if __name__ == "__main__":`` -- the
    script-entry idiom, where a process exit is the module's own business."""
    for parent in ancestors(node):
        if isinstance(parent, ast.If):
            test = parent.test
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id == "__name__"
            ):
                return True
    return False


def _in_loop_or_comprehension(node: ast.AST) -> bool:
    for parent in ancestors(node):
        if isinstance(parent, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                               ast.DictComp, ast.GeneratorExp)):
            return True
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
    return False


class RngKeyedRule(Rule):
    """RNG-KEYED: every ``default_rng`` takes a multi-element key list."""

    id = "RNG-KEYED"
    title = "RNG streams must be keyed list seeds, never scalar or derived"
    rationale = (
        "PR 4: lane generators keyed [seed + 1, lane] / [seed + 2, lane] made "
        "seed S's feedback streams bit-identical to seed S + 1's env streams. "
        "Scalar seeds and seed arithmetic create exactly this collision shape; "
        "key streams as [seed, domain, identity] like lane_generators."
    )

    _GLOBAL_NUMPY = {
        "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "normal", "uniform",
        "standard_normal", "get_state", "set_state", "RandomState",
    }
    _GLOBAL_STDLIB = {
        "seed", "random", "randint", "randrange", "uniform", "choice",
        "choices", "shuffle", "sample", "gauss", "getrandbits", "betavariate",
        "expovariate", "normalvariate", "vonmisesvariate",
    }

    def check(self, info: ModuleInfo, project: Project) -> Iterator[Diagnostic]:
        if not self.applies(info):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, info)
            if name is None:
                continue
            if name == "numpy.random.default_rng":
                yield from self._check_default_rng(info, node)
            elif name.startswith("numpy.random."):
                attr = name.rsplit(".", 1)[1]
                if attr in self._GLOBAL_NUMPY:
                    yield self.diagnostic(
                        info, node,
                        f"global numpy.random.{attr} call shares one hidden "
                        "stream across every caller -- draw from an explicit "
                        "keyed default_rng([seed, domain, ...]) generator",
                    )
            elif name.startswith("random.") and name.count(".") == 1:
                attr = name.rsplit(".", 1)[1]
                if attr in self._GLOBAL_STDLIB:
                    yield self.diagnostic(
                        info, node,
                        f"stdlib random.{attr} uses the global Mersenne "
                        "state -- use a keyed numpy default_rng stream",
                    )

    def _check_default_rng(
        self, info: ModuleInfo, node: ast.Call
    ) -> Iterator[Diagnostic]:
        if not node.args and not node.keywords:
            yield self.diagnostic(
                info, node,
                "default_rng() with no seed draws OS entropy -- results are "
                "unreproducible; key the stream as [seed, domain, identity]",
            )
            return
        if not node.args:
            return  # keyword form is not used in this tree; let it pass
        seed = node.args[0]
        if isinstance(seed, (ast.List, ast.Tuple)):
            if len(seed.elts) < 2:
                yield self.diagnostic(
                    info, node,
                    "single-element seed key is equivalent to a scalar seed "
                    "-- key streams as [seed, domain, identity]",
                )
            elif any(_contains_binop(element) for element in seed.elts):
                yield self.diagnostic(
                    info, node,
                    "seed arithmetic inside a key collides neighbouring "
                    "streams (the PR 4 [seed + 1, lane] bug) -- make each "
                    "component an independent key element instead",
                )
            return
        if _contains_binop(seed):
            yield self.diagnostic(
                info, node,
                "derived scalar seed (arithmetic on a base seed) collides "
                "with neighbouring streams -- key as [base, index] instead",
            )
            return
        message = (
            "scalar-seeded default_rng; lane-scoped code must key streams "
            "as [seed, domain, identity] (see lane_generators)"
        )
        if _in_loop_or_comprehension(node):
            message = (
                "scalar-seeded default_rng inside a loop/comprehension "
                "enumerates a stream family -- key it as [seed, index] "
                "(see lane_generators)"
            )
        yield self.diagnostic(info, node, message)


class NoWallclockRule(Rule):
    """NO-WALLCLOCK: no direct clock reads outside approved seams."""

    id = "NO-WALLCLOCK"
    title = "no wall-clock reads outside injectable-clock seams"
    rationale = (
        "PR 7: request deadlines are measured on an injectable clock "
        "(EvaluationService(clock=...)) so timeout behaviour is testable and "
        "deterministic.  A direct time.time()/perf_counter() read in the "
        "evaluation path silently re-couples results to the host clock.  "
        "Passing a clock *function* (clock=time.monotonic) is the approved "
        "seam and is not flagged -- only inline calls are."
    )
    exempt = ("repro.cli", "__main__")

    _CLOCK_CALLS = {
        "time.time", "time.time_ns", "time.perf_counter",
        "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
        "time.process_time", "time.process_time_ns", "time.strftime",
        "time.localtime", "time.gmtime", "time.ctime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }

    def check(self, info: ModuleInfo, project: Project) -> Iterator[Diagnostic]:
        if not self.applies(info):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, info)
            if name in self._CLOCK_CALLS:
                yield self.diagnostic(
                    info, node,
                    f"direct {name}() read couples behaviour to the host "
                    "clock -- accept an injectable clock callable (see "
                    "repro.serving.service.EvaluationService) or move the "
                    "timing into a benchmark/CLI module",
                )


class BatchRefRule(Rule):
    """BATCH-REF: every public ``*_lanes`` kernel has a scalar reference."""

    id = "BATCH-REF"
    title = "every public *_lanes kernel needs a scalar reference twin"
    rationale = (
        "PR 6: every batched kernel is held bitwise-equal to a frozen scalar "
        "reference by tests/test_batched_equivalence.py.  A *_lanes function "
        "without a scalar twin has nothing to be checked against, so its "
        "divergences ship silently.  The twin may be <base>, <base>_reference "
        "or the singular/plural variant, in the same module, a direct "
        "import/importer, or a sibling module of the same subpackage."
    )

    def check(self, info: ModuleInfo, project: Project) -> Iterator[Diagnostic]:
        if not self.applies(info):
            return
        neighborhood = None
        for node in ast.walk(info.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = node.name
            if name.startswith("_") or not name.endswith("_lanes"):
                continue
            base = name[: -len("_lanes")]
            if not base:
                continue
            if neighborhood is None:
                neighborhood = project.neighborhood(info.module) or [info]
            candidates = {base, f"{base}_reference"}
            if base.endswith("ies"):
                candidates.add(base[:-3] + "y")
            if base.endswith("s"):
                candidates.add(base[:-1])
            else:
                candidates.add(base + "s")
            if any(project.defines(neighborhood, c) for c in candidates):
                continue
            yield self.diagnostic(
                info, node,
                f"batched kernel {name} has no scalar reference "
                f"({' / '.join(sorted(candidates))}) in its module, import "
                "neighborhood or subpackage -- add the frozen scalar twin "
                "the differential harness can pin it against",
            )


class AtomicWriteRule(Rule):
    """ATOMIC-WRITE: persisted files are written temp-file + os.replace."""

    id = "ATOMIC-WRITE"
    title = "file writes must be atomic (temp file + os.replace)"
    rationale = (
        "PR 7: ResultCache.put once wrote npz payloads directly to their "
        "final path; a crash mid-write left a torn entry every later read "
        "had to detect and evict.  Write through repro.atomicio (or an "
        "explicit mkstemp + os.replace in the same function) so a partially "
        "written file can never sit at a final path."
    )
    exempt = ("repro.atomicio",)

    _NUMPY_WRITERS = {"numpy.save", "numpy.savez", "numpy.savez_compressed"}

    def check(self, info: ModuleInfo, project: Project) -> Iterator[Diagnostic]:
        if not self.applies(info):
            return
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            name = qualified_name(node.func, info)
            flagged: str | None = None
            if name == "open" and self._write_mode(node):
                flagged = "open(..., 'w')"
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text", "write_bytes"
            ):
                flagged = f".{node.func.attr}()"
            elif name in self._NUMPY_WRITERS and node.args:
                if self._targets_buffer(node.args[0], node):
                    continue
                flagged = name
            if flagged is None:
                continue
            if self._function_is_atomic(node):
                continue
            yield self.diagnostic(
                info, node,
                f"{flagged} writes to a final path; a crash mid-write leaves "
                "a torn file -- route it through repro.atomicio or pair it "
                "with os.replace in this function",
            )

    @staticmethod
    def _write_mode(node: ast.Call) -> bool:
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if mode is None:
            return False
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return any(flag in mode.value for flag in "wax")
        return False

    def _targets_buffer(self, target: ast.expr, node: ast.Call) -> bool:
        """True when the write target is an in-memory BytesIO local."""
        if not isinstance(target, ast.Name):
            return False
        function = enclosing_function(node)
        if function is None:
            return False
        for stmt in ast.walk(function):
            if (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
                and any(
                    isinstance(t, ast.Name) and t.id == target.id
                    for t in stmt.targets
                )
            ):
                callee = stmt.value.func
                attr = callee.attr if isinstance(callee, ast.Attribute) else (
                    callee.id if isinstance(callee, ast.Name) else ""
                )
                if attr in ("BytesIO", "StringIO"):
                    return True
        return False

    @staticmethod
    def _function_is_atomic(node: ast.Call) -> bool:
        """The enclosing function finishes the write with os.replace or
        delegates to an atomic_* helper."""
        function = enclosing_function(node)
        if function is None:
            return False
        for stmt in ast.walk(function):
            if not isinstance(stmt, ast.Call):
                continue
            callee = stmt.func
            if isinstance(callee, ast.Attribute):
                if callee.attr == "replace" or callee.attr.startswith("atomic_"):
                    return True
            elif isinstance(callee, ast.Name) and callee.id.startswith("atomic_"):
                return True
        return False


class NoUnorderedIterRule(Rule):
    """NO-UNORDERED-ITER: never iterate sets or directory listings raw."""

    id = "NO-UNORDERED-ITER"
    title = "no iteration over unordered containers without sorted()"
    rationale = (
        "Set iteration order depends on insertion history and hash "
        "randomisation of the value types; directory listings depend on the "
        "filesystem.  Feeding either into RNG draws, trace arrays or cache "
        "keys makes byte-identity run-order dependent.  Wrap the iterable "
        "in sorted(...) to pin the order."
    )

    _UNORDERED_CALLS = {"set", "frozenset"}
    _LISTING_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
    _LISTING_METHODS = {"iterdir", "glob", "rglob"}

    def check(self, info: ModuleInfo, project: Project) -> Iterator[Diagnostic]:
        if not self.applies(info):
            return
        for node in ast.walk(info.tree):
            iters: list[ast.expr] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for candidate in iters:
                candidate = self._unwrap(candidate)
                label = self._unordered_label(candidate, info)
                if label is not None:
                    yield self.diagnostic(
                        info, candidate,
                        f"iterating {label} visits elements in an undefined "
                        "order -- wrap it in sorted(...) so downstream RNG "
                        "draws, traces and cache keys cannot depend on "
                        "insertion or filesystem order",
                    )

    @staticmethod
    def _unwrap(node: ast.expr) -> ast.expr:
        """Look through enumerate()/list()/tuple() shells (they preserve
        whatever order the inner iterable yields)."""
        while (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("enumerate", "list", "tuple", "reversed")
            and node.args
        ):
            node = node.args[0]
        return node

    def _unordered_label(self, node: ast.expr, info: ModuleInfo) -> str | None:
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            name = qualified_name(node.func, info)
            if name in self._UNORDERED_CALLS:
                return f"{name}(...)"
            if name in self._LISTING_CALLS:
                return f"{name}(...) (filesystem order)"
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in self._LISTING_METHODS
            ):
                return f".{node.func.attr}(...) (filesystem order)"
        return None


class NoHardExitRule(Rule):
    """NO-HARD-EXIT: process exits belong to the fault injector and mains."""

    id = "NO-HARD-EXIT"
    title = "no os._exit/sys.exit outside reliability.faults and CLI mains"
    rationale = (
        "PR 7: os._exit(17) in reliability/faults.py is the one sanctioned "
        "hard death -- it *simulates* a worker crash so recovery is "
        "testable.  Anywhere else, a hard exit skips cleanup (pool leases, "
        "atexit guards, temp files) and turns a recoverable error into a "
        "hung parent; raise an exception and let the owner decide."
    )
    exempt = ("repro.reliability.faults", "repro.cli", "__main__")

    def check(self, info: ModuleInfo, project: Project) -> Iterator[Diagnostic]:
        if not self.applies(info):
            return
        for node in ast.walk(info.tree):
            if _in_main_guard(node):
                continue  # script-entry blocks exit on purpose
            if isinstance(node, ast.Call):
                name = qualified_name(node.func, info)
                if name in ("os._exit", "sys.exit"):
                    yield self.diagnostic(
                        info, node,
                        f"{name}() kills the process past every cleanup "
                        "seam -- raise instead; hard exits belong to "
                        "repro.reliability.faults and __main__ modules",
                    )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc
                if isinstance(target, ast.Call):
                    target = target.func
                name = qualified_name(target, info) if isinstance(
                    target, (ast.Name, ast.Attribute)
                ) else None
                if name == "SystemExit":
                    yield self.diagnostic(
                        info, node,
                        "raise SystemExit outside a __main__ module hides a "
                        "process exit in library code -- raise a domain "
                        "exception instead",
                    )


RULES: tuple[Rule, ...] = (
    RngKeyedRule(),
    NoWallclockRule(),
    BatchRefRule(),
    AtomicWriteRule(),
    NoUnorderedIterRule(),
    NoHardExitRule(),
)


def rule_ids() -> list[str]:
    return [rule.id for rule in RULES]
