"""reprolint: fixture corpus, waiver machinery, CLI exits, live-tree gate.

The fixture corpus under ``tests/data/lint/`` carries one good and one bad
snippet per rule; every bad snippet is a real historical bug shape (the
PR 4 ``[seed + 1, lane]`` RNG collision, the PR 7 torn cache write, ...).
The live-tree self-check is the same gate CI runs: the shipped ``repro``
package must lint clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.contracts import RULES, lint_paths, lint_source, lint_tree, rule_ids
from repro.contracts.__main__ import main as contracts_main
from repro.contracts.census import census_payload
from repro.contracts.deep import DEEP_RULES, deep_rule_ids
from repro.contracts.engine import BAD_WAIVER, STALE_WAIVER

FIXTURES = Path(__file__).parent / "data" / "lint"
REPO_ROOT = Path(__file__).resolve().parents[1]

#: Module names the deep fixtures are linted under: LAYER-SAFE only places
#: modules inside the ``repro`` package, so its fixtures borrow an address.
DEEP_FIXTURE_MODULES = {"LAYER-SAFE": "repro.robot.layering_fixture"}


def deep_lint(path: Path, module_name: str | None):
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        module_name=module_name,
        deep=True,
    )


def fixture_path(rule_id: str, kind: str) -> Path:
    return FIXTURES / f"{rule_id.lower().replace('-', '_')}_{kind}.py"


def rules_hit(path: Path) -> set[str]:
    result = lint_paths([path])
    return {diagnostic.rule for diagnostic in result.violations}


# ---------------------------------------------------------------------------
# fixture corpus: every rule has a true positive and a clean counterpart


@pytest.mark.parametrize("rule_id", rule_ids())
def test_bad_fixture_trips_exactly_its_rule(rule_id):
    hit = rules_hit(fixture_path(rule_id, "bad"))
    assert rule_id in hit
    # The corpus stays one-rule-per-file so a regression is named precisely.
    assert hit == {rule_id}


@pytest.mark.parametrize("rule_id", rule_ids())
def test_good_fixture_is_clean(rule_id):
    result = lint_paths([fixture_path(rule_id, "good")])
    assert result.ok, [d.format() for d in result.violations]


def test_every_rule_has_both_fixtures():
    for rule_id in rule_ids():
        assert fixture_path(rule_id, "good").is_file()
        assert fixture_path(rule_id, "bad").is_file()


def test_pr4_collision_shape_is_caught():
    """The exact PR 4 bug -- seed arithmetic inside the lane key."""
    source = fixture_path("RNG-KEYED", "bad").read_text()
    assert "[seed + 1, lane]" in source  # the corpus keeps the shape verbatim
    result = lint_paths([fixture_path("RNG-KEYED", "bad")])
    flagged_lines = {
        d.line for d in result.violations if "seed arithmetic inside a key" in d.message
    }
    assert len(flagged_lines) == 2  # [seed + 1, lane] and [seed + 2, lane]


def test_pr7_torn_write_shape_is_caught():
    """The exact PR 7 bug -- cache payloads written straight to the final
    path."""
    result = lint_paths([fixture_path("ATOMIC-WRITE", "bad")])
    messages = [d.message for d in result.violations]
    assert any("open(..., 'w')" in message for message in messages)
    assert any("numpy.savez" in message for message in messages)


def test_diagnostics_carry_file_and_line():
    path = fixture_path("NO-HARD-EXIT", "bad")
    result = lint_paths([path])
    assert result.violations
    for diagnostic in result.violations:
        assert diagnostic.path == str(path)
        assert diagnostic.line >= 1
        assert diagnostic.format().startswith(f"{path}:{diagnostic.line}:")


# ---------------------------------------------------------------------------
# deep-pass fixture corpus (linted with the whole-program passes on)


@pytest.mark.parametrize("rule_id", deep_rule_ids())
def test_deep_bad_fixture_trips_exactly_its_rule(rule_id):
    result = deep_lint(fixture_path(rule_id, "bad"), DEEP_FIXTURE_MODULES.get(rule_id))
    hit = {d.rule for d in result.violations}
    assert hit == {rule_id}, [d.format() for d in result.violations]


@pytest.mark.parametrize("rule_id", deep_rule_ids())
def test_deep_good_fixture_is_clean(rule_id):
    result = deep_lint(fixture_path(rule_id, "good"), DEEP_FIXTURE_MODULES.get(rule_id))
    assert result.ok, [d.format() for d in result.violations]


def test_every_deep_rule_has_both_fixtures():
    for rule_id in deep_rule_ids():
        assert fixture_path(rule_id, "good").is_file()
        assert fixture_path(rule_id, "bad").is_file()


def test_deep_rule_metadata_is_complete():
    for rule in DEEP_RULES:
        assert rule.id and rule.title and rule.rationale
    assert len(set(deep_rule_ids())) == len(DEEP_RULES) == 4
    assert not set(deep_rule_ids()) & set(rule_ids())


def test_pr4_collision_shape_is_proven_by_provenance():
    """The exact PR 4 bug, this time *proven* colliding: across runs, seed
    S's [seed + 2, lane] stream is seed S+1's [seed + 1, lane] stream."""
    source = (
        "import numpy as np\n"
        "def lane_generators(seed, lane):\n"
        "    env = np.random.default_rng([seed + 1, lane])\n"
        "    feedback = np.random.default_rng([seed + 2, lane])\n"
        "    return env, feedback\n"
    )
    result = lint_source(source, deep=True, shallow=False)
    assert {d.rule for d in result.violations} == {"RNG-PROVENANCE"}
    assert "can collide" in result.violations[0].message


def test_provenance_accepts_domain_tagged_streams():
    source = (
        "import numpy as np\n"
        "def lane_generators(seed, lane):\n"
        "    env = np.random.default_rng([seed, 1, lane])\n"
        "    feedback = np.random.default_rng([seed, 2, lane])\n"
        "    return env, feedback\n"
    )
    assert lint_source(source, deep=True, shallow=False).ok


def test_provenance_specializes_through_call_sites():
    """A parameterized key is judged per call site: two helpers funnelling
    different constants through one constructor stay disjoint."""
    source = (
        "import numpy as np\n"
        "def make(seed, domain, lane):\n"
        "    return np.random.default_rng([seed, domain, lane])\n"
        "def env(seed, lane):\n"
        "    return make(seed, 1, lane)\n"
        "def feedback(seed, lane):\n"
        "    return make(seed, 2, lane)\n"
    )
    assert lint_source(source, deep=True, shallow=False).ok


def test_lane_shape_flags_axis_dropping_reduction():
    source = (
        "import numpy as np\n"
        "def f(q):\n"
        "    return q\n"
        "def f_lanes(qs: np.ndarray) -> np.ndarray:\n"
        "    return np.sum(qs, axis=0)\n"
    )
    result = lint_source(source, deep=True, shallow=False)
    assert [d.rule for d in result.violations] == ["LANE-SHAPE"]
    assert "reduces across the lane axis" in result.violations[0].message


def test_lane_shape_accepts_trailing_axis_reduction():
    source = (
        "import numpy as np\n"
        "def f(q):\n"
        "    return q\n"
        "def f_lanes(qs: np.ndarray) -> np.ndarray:\n"
        "    return np.sum(qs, axis=1)\n"
    )
    assert lint_source(source, deep=True, shallow=False).ok


def test_layer_safe_flags_upward_import():
    result = lint_source(
        "from repro.serving.service import EvaluationService\n",
        module_name="repro.robot.helper",
        deep=True,
        shallow=False,
    )
    assert [d.rule for d in result.violations] == ["LAYER-SAFE"]
    assert "upward import" in result.violations[0].message


def test_layer_safe_allows_downward_and_sibling_imports():
    result = lint_source(
        "import repro.robot.dynamics\nfrom repro import constants\n",
        module_name="repro.robot.helper",
        deep=True,
        shallow=False,
    )
    assert result.ok


def test_spawn_safe_flags_lambda_and_bound_method():
    source = (
        "def run(self, pool, chunks):\n"
        "    pool.map(lambda c: c, chunks)\n"
        "    pool.map(self.roll, chunks)\n"
    )
    result = lint_source(source, deep=True, shallow=False)
    assert [d.rule for d in result.violations] == ["SPAWN-SAFE", "SPAWN-SAFE"]


def test_spawn_safe_ignores_fluent_map_apis():
    """hypothesis's strategy.map(lambda ...) is not a pool dispatch."""
    source = "def gen(strategy):\n    return strategy.map(lambda x: x + 1)\n"
    assert lint_source(source, deep=True, shallow=False).ok


# ---------------------------------------------------------------------------
# deep/shallow profile interaction


def test_deep_waiver_is_not_stale_in_shallow_run():
    source = (
        "import numpy as np\n"
        "def f(qs):\n"
        "    return qs\n"
        "def f_lanes(qs: np.ndarray) -> np.ndarray:\n"
        "    # repro: allow[LANE-SHAPE] reason=demonstration kernel\n"
        "    return np.sum(qs)\n"
    )
    shallow = lint_source(source)  # deep pass off: the waiver must stay live
    assert shallow.ok, [d.format() for d in shallow.violations]
    deep = lint_source(source, deep=True)
    assert deep.ok and len(deep.waived) == 1


def test_shallow_waiver_is_not_stale_in_deep_only_run():
    source = (
        "import sys\n"
        "# repro: allow[NO-HARD-EXIT] reason=demonstration exit\n"
        "sys.exit(1)\n"
    )
    result = lint_source(source, deep=True, shallow=False)
    assert result.ok and not result.waived


def test_deep_waiver_is_stale_when_deep_pass_finds_nothing():
    source = "# repro: allow[LANE-SHAPE] reason=suppresses nothing\nx = 1\n"
    result = lint_source(source, deep=True)
    assert {d.rule for d in result.violations} == {STALE_WAIVER}


# ---------------------------------------------------------------------------
# modern-syntax regression corpus


def test_modern_syntax_fixture_is_clean_under_deep():
    path = FIXTURES / "modern_syntax_clean.py"
    result = deep_lint(path, None)
    assert result.ok, [d.format() for d in result.violations]


def test_walrus_bound_rng_is_still_checked():
    result = lint_source(
        "import numpy as np\n"
        "def f(seed):\n"
        "    if (rng := np.random.default_rng()) is not None:\n"
        "        return rng\n"
    )
    assert "RNG-KEYED" in {d.rule for d in result.violations}


def test_match_case_bodies_are_walked_by_deep_passes():
    source = (
        "import numpy as np\n"
        "def f(q):\n"
        "    return q\n"
        "def f_lanes(qs: np.ndarray, mode: int) -> np.ndarray:\n"
        "    match mode:\n"
        "        case 0:\n"
        "            return np.sum(qs, axis=0)\n"
        "        case _:\n"
        "            return qs\n"
    )
    result = lint_source(source, deep=True, shallow=False)
    assert [d.rule for d in result.violations] == ["LANE-SHAPE"]


def test_starred_shape_unpack_tracks_lane_count():
    source = (
        "import numpy as np\n"
        "def f(q):\n"
        "    return q\n"
        "def f_lanes(qs: np.ndarray) -> np.ndarray:\n"
        "    lanes, *trailing = qs.shape\n"
        "    return np.zeros((lanes, 3)) + qs.sum(axis=1)[:, None]\n"
    )
    assert lint_source(source, deep=True, shallow=False).ok


def test_nested_comprehension_stacking_stays_lane_aligned():
    source = (
        "import numpy as np\n"
        "def f(q):\n"
        "    return q\n"
        "def f_lanes(qs: np.ndarray) -> np.ndarray:\n"
        "    return np.stack([row * 2 for row in qs])\n"
    )
    assert lint_source(source, deep=True, shallow=False).ok


def test_main_guard_exit_is_allowed():
    result = lint_source(
        "import sys\n"
        "def main() -> int:\n"
        "    return 0\n"
        'if __name__ == "__main__":\n'
        "    raise SystemExit(main())\n"
    )
    assert result.ok, [d.format() for d in result.violations]


# ---------------------------------------------------------------------------
# waiver census artifact


def test_committed_census_matches_live_tree():
    """CI regenerates artifacts/lint-census.json and diffs it; this is the
    same gate as a test, so a waiver-count drift fails before push."""
    committed = json.loads((REPO_ROOT / "artifacts" / "lint-census.json").read_text())
    live = census_payload(lint_tree(deep=True), root=REPO_ROOT)
    assert committed == live, (
        "waiver census drifted -- regenerate with "
        "`python -m repro.contracts --deep --census artifacts/lint-census.json`"
    )


def test_census_cli_writes_parseable_json(tmp_path, capsys):
    out = tmp_path / "census.json"
    good = fixture_path("RNG-KEYED", "good")
    assert contracts_main([str(good), "--census", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {
        "files", "violations", "waived_total", "waived_by_rule",
        "waived_by_file", "reasons_by_file",
    }
    assert payload["files"] == 1 and payload["violations"] == 0
    assert "waiver census written" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# waiver machinery


def test_waiver_on_same_line_suppresses():
    result = lint_source(
        "import numpy as np\n"
        "rng = np.random.default_rng(3)"
        "  # repro: allow[RNG-KEYED] reason=test stream\n"
    )
    assert result.ok
    assert len(result.waived) == 1


def test_waiver_on_line_above_suppresses():
    result = lint_source(
        "import numpy as np\n"
        "# repro: allow[RNG-KEYED] reason=test stream\n"
        "rng = np.random.default_rng(3)\n"
    )
    assert result.ok


def test_waiver_does_not_leak_past_adjacent_line():
    result = lint_source(
        "import numpy as np\n"
        "# repro: allow[RNG-KEYED] reason=covers only the next line\n"
        "a = np.random.default_rng(3)\n"
        "b = np.random.default_rng(4)\n"
    )
    assert len(result.waived) == 1  # line 3 rides the waiver
    assert [d.line for d in result.violations if d.rule == "RNG-KEYED"] == [4]


def test_reasonless_waiver_is_a_violation():
    result = lint_source(
        "import numpy as np\n"
        "rng = np.random.default_rng(3)  # repro: allow[RNG-KEYED]\n"
    )
    rules = {d.rule for d in result.violations}
    assert BAD_WAIVER in rules


def test_stale_waiver_is_a_violation():
    result = lint_source(
        "# repro: allow[NO-HARD-EXIT] reason=nothing here exits\n"
        "x = 1\n"
    )
    assert {d.rule for d in result.violations} == {STALE_WAIVER}


def test_one_waiver_can_cover_multiple_rules():
    result = lint_source(
        "import numpy as np\n"
        "import sys\n"
        "def f(seed):\n"
        "    # repro: allow[RNG-KEYED, NO-HARD-EXIT] reason=both intentional here\n"
        "    rng = np.random.default_rng(seed); sys.exit(int(rng.integers(2)))\n"
    )
    assert result.ok
    assert len(result.waived) == 2


def test_waiver_inside_docstring_is_inert():
    result = lint_source(
        '"""Docs showing the syntax:\n\n'
        "    # repro: allow[RNG-KEYED] reason=example\n"
        '"""\n'
        "x = 1\n"
    )
    assert result.ok
    assert not result.waived


# ---------------------------------------------------------------------------
# rule-engine behaviour pinned by the live tree's idioms


def test_clock_reference_as_default_argument_is_allowed():
    result = lint_source(
        "import time\n"
        "from typing import Callable\n"
        "def wait(clock: Callable[[], float] = time.monotonic):\n"
        "    return clock()\n"
    )
    assert result.ok


def test_bytesio_savez_is_not_a_file_write():
    result = lint_source(
        "import io\n"
        "import numpy as np\n"
        "def encode(arr):\n"
        "    buffer = io.BytesIO()\n"
        "    np.savez(buffer, arr=arr)\n"
        "    return buffer.getvalue()\n"
    )
    assert result.ok


def test_batched_kernel_found_via_importer_edge(tmp_path):
    """Scalar entry points often live in the module that *imports* the
    batched kernels (repro.robot.dynamics importing repro.robot.batched)."""
    kernels = tmp_path / "pkg_kernels.py"
    frontend = tmp_path / "pkg_frontend.py"
    kernels.write_text("def mass_lanes(qs):\n    return qs\n")
    frontend.write_text(
        "from pkg_kernels import mass_lanes\n\n"
        "def mass(q):\n    return mass_lanes([q])[0]\n"
    )
    result = lint_paths([kernels, frontend])
    assert result.ok, [d.format() for d in result.violations]


def test_rule_metadata_is_complete():
    for rule in RULES:
        assert rule.id and rule.title and rule.rationale
    assert len(set(rule_ids())) == len(RULES) >= 6


# ---------------------------------------------------------------------------
# CLI and the live-tree gate


def test_live_tree_is_lint_clean():
    result = lint_tree()
    assert result.ok, "\n".join(d.format() for d in result.violations)
    assert result.files > 50  # the whole package was actually walked


def test_live_tree_is_deep_clean():
    """The whole-program passes hold over the shipped package: every lane
    kernel preserves the lane axis, every RNG stream family is provably
    disjoint, the layering DAG and spawn-safety hold."""
    result = lint_tree(deep=True)
    assert result.ok, "\n".join(d.format() for d in result.violations)


def test_support_trees_are_deep_clean():
    """The CI support-tree profile: benchmarks/, examples/ and the test
    helpers share the cross-file invariants (deep passes only)."""
    for tree in ("benchmarks", "examples", "tests"):
        result = lint_tree(REPO_ROOT / tree, deep=True, shallow=False)
        assert result.ok, "\n".join(d.format() for d in result.violations)


def test_cli_deep_flags(capsys):
    assert contracts_main(["--deep"]) == 0
    assert "waived" in capsys.readouterr().out
    bad = fixture_path("SPAWN-SAFE", "bad")
    assert contracts_main(["--deep-only", str(bad)]) == 1
    assert "SPAWN-SAFE" in capsys.readouterr().out


def test_cli_exit_codes_and_output(capsys):
    bad = fixture_path("RNG-KEYED", "bad")
    assert contracts_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{bad}:" in out and "RNG-KEYED" in out

    good = fixture_path("RNG-KEYED", "good")
    assert contracts_main([str(good)]) == 0


def test_cli_default_tree_run_prints_waiver_census(capsys):
    assert contracts_main([]) == 0
    out = capsys.readouterr().out
    assert "violation(s)" in out and "waived" in out


def test_experiments_cli_lint_subcommand(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "reprolint:" in out


def test_experiments_cli_lint_deep(monkeypatch, capsys):
    """``lint`` runs no whole-program pass; ``lint --deep`` runs every one,
    in order -- so the CLI must pass ``--deep`` through to reprolint."""
    from repro.cli import main as cli_main
    from repro.contracts.deep import DEEP_RULES

    ran = []
    for rule in DEEP_RULES:
        def spy(project, rule=rule, original=rule.check_project):
            ran.append(rule.id)
            return original(project)

        monkeypatch.setattr(rule, "check_project", spy)

    assert cli_main(["lint"]) == 0
    assert ran == []
    assert cli_main(["lint", "--deep"]) == 0
    assert ran == [rule.id for rule in DEEP_RULES]
    assert "reprolint:" in capsys.readouterr().out


def test_experiments_cli_lint_runs_alone(capsys):
    from repro.cli import main as cli_main

    assert cli_main(["lint", "tbl1"]) == 2
