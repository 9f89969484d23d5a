"""Tests for the whole-program lint pass: the project context, the
cross-file escape analysis behind RPL013, the dead-waiver audit, SARIF
output, and suppression-parsing edge cases (property-based)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lint import (
    ALL_RULES,
    DEAD_WAIVER_ID,
    ProjectContext,
    find_dead_waivers,
    lint_paths,
    rules_by_id,
    to_sarif,
)
from repro.lint.cli import main as lint_main
from repro.lint.engine import build_context, lint_contexts

SERVE_DIR = "src/repro/serve"


def _contexts(files: dict[str, str]):
    return [build_context(path, source) for path, source in files.items()]


# ----------------------------------------------------- project context


def test_resolve_call_same_module():
    ctxs = _contexts(
        {
            f"{SERVE_DIR}/a.py": '"""a."""\n__all__ = ["f", "g"]\n\n\ndef g():\n    pass\n\n\ndef f():\n    g()\n'
        }
    )
    project = ProjectContext.from_contexts(ctxs)
    import ast

    call = next(
        n for n in ast.walk(ctxs[0].tree) if isinstance(n, ast.Call)
    )
    info = project.resolve_call(ctxs[0], call)
    assert info is not None and info.qualname == "g"


def test_resolve_call_across_modules():
    ctxs = _contexts(
        {
            "src/repro/serve/helpers.py": '"""h."""\n__all__ = ["write_into"]\n\n\ndef write_into(view):\n    view[0] = 1\n',
            "src/repro/serve/caller.py": (
                '"""c."""\nfrom repro.serve.helpers import write_into\n\n'
                "__all__ = [\"f\"]\n\n\ndef f(handle: 'SharedInstanceHandle') -> None:\n"
                "    write_into(handle.bitmatrix())\n"
            ),
        }
    )
    diagnostics = lint_contexts(ctxs, ALL_RULES)
    rpl013 = [d for d in diagnostics if d.rule == "RPL013"]
    # The write site is inside helpers.py — reached only through the
    # cross-file escape of the shared view out of caller.py.
    assert [d.path for d in rpl013] == ["src/repro/serve/helpers.py"]


def test_escape_into_commit_protocol_is_allowed():
    ctxs = _contexts(
        {
            "src/repro/billboard/postlog.py": (
                '"""p."""\n__all__ = ["commit"]\n\n\ndef commit(view):\n    view[0] = 1\n'
            ),
            "src/repro/serve/caller.py": (
                '"""c."""\nfrom repro.billboard.postlog import commit\n\n'
                "__all__ = [\"f\"]\n\n\ndef f(handle: 'SharedInstanceHandle') -> None:\n"
                "    commit(handle.bitmatrix())\n"
            ),
        }
    )
    diagnostics = lint_contexts(ctxs, ALL_RULES)
    assert [d for d in diagnostics if d.rule == "RPL013"] == []


def test_project_rule_findings_respect_waivers():
    source = (
        '"""m."""\n__all__ = ["f"]\n\n\ndef f(handle: "SharedInstanceHandle") -> None:\n'
        "    handle.bitmatrix()[0] = 1  # repro: noqa[RPL013] deliberate, for a test\n"
    )
    ctxs = _contexts({f"{SERVE_DIR}/waived.py": source})
    assert [d for d in lint_contexts(ctxs, ALL_RULES) if d.rule == "RPL013"] == []
    # ... and because the waiver fired, the dead-waiver audit stays quiet.
    assert find_dead_waivers(ctxs) == []


@pytest.mark.parametrize("draw", ["spawn(gen)", "spawn_many(gen, n)", "spawn_seeds(gen, n)"])
def test_lockstep_rule_sees_every_spawn_helper(draw):
    source = (
        '"""m."""\n__all__ = ["f"]\n\n\ndef f(gen, shard, n):\n'
        f"    if shard == 0:\n        return {draw}\n"
    )
    ctxs = _contexts({f"{SERVE_DIR}/m.py": source})
    assert [d.rule for d in lint_contexts(ctxs, ALL_RULES)] == ["RPL014"]


def test_lockstep_rule_scoped_to_serve():
    source = (
        '"""m."""\n__all__ = ["f"]\n\n\ndef f(gen, shard, n):\n'
        "    if shard == 0:\n        return gen.integers(0, 2, size=n)\n"
    )
    in_serve = _contexts({f"{SERVE_DIR}/m.py": source})
    elsewhere = _contexts({"src/repro/core/m.py": source})
    assert [d.rule for d in lint_contexts(in_serve, ALL_RULES)] == ["RPL014"]
    assert [d for d in lint_contexts(elsewhere, ALL_RULES) if d.rule == "RPL014"] == []


# -------------------------------------------------- dead-waiver audit


def test_dead_waiver_detected():
    source = (
        '"""m."""\n__all__ = ["f"]\n\n\ndef f() -> int:\n'
        "    return 1  # repro: noqa[RPL004] nothing here ever tripped it\n"
    )
    ctxs = _contexts({"src/repro/core/m.py": source})
    lint_contexts(ctxs, ALL_RULES)
    dead = find_dead_waivers(ctxs)
    assert [d.rule for d in dead] == [DEAD_WAIVER_ID]
    assert dead[0].severity == "warning"
    assert "RPL004" in dead[0].message


def test_cli_dead_waivers_exit_three(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "core" / "m.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        '"""m."""\n__all__ = ["X"]\n\nX = 1  # repro: noqa[RPL001] stale\n',
        encoding="utf-8",
    )
    assert lint_main([str(target)]) == 3
    out = capsys.readouterr().out
    assert DEAD_WAIVER_ID in out and "dead waiver" in out


def test_cli_no_dead_waivers_flag(tmp_path, capsys):
    target = tmp_path / "src" / "repro" / "core" / "m.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        '"""m."""\n__all__ = ["X"]\n\nX = 1  # repro: noqa[RPL001] stale\n',
        encoding="utf-8",
    )
    assert lint_main(["--no-dead-waivers", str(target)]) == 0
    assert "clean" in capsys.readouterr().out


def test_audit_skipped_under_select(tmp_path):
    target = tmp_path / "src" / "repro" / "core" / "m.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        '"""m."""\n__all__ = ["X"]\n\nX = 1  # repro: noqa[RPL004] unexercised under select\n',
        encoding="utf-8",
    )
    assert lint_main(["--select", "RPL007", str(target)]) == 0


# --------------------------------------------------------------- SARIF


def test_sarif_structure():
    log = to_sarif([], ALL_RULES)
    assert log["version"] == "2.1.0"
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert {r["id"] for r in driver["rules"]} == set(rules_by_id())
    assert run["results"] == []


def test_sarif_cli_roundtrip(tmp_path, capsys):
    bad = tmp_path / "src" / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import numpy as np\n\nu = np.unique(v, axis=0)\n", encoding="utf-8")
    out_file = tmp_path / "lint.sarif"
    assert lint_main(["--format", "sarif", "--output-file", str(out_file), str(bad)]) == 1
    log = json.loads(out_file.read_text(encoding="utf-8"))
    (run,) = log["runs"]
    results = run["results"]
    assert sorted(r["ruleId"] for r in results) == ["RPL004", "RPL006"]
    for result in results:
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        assert result["level"] in ("error", "warning")
    # --output is accepted as an alias of --format.
    assert lint_main(["--output", "sarif", "--no-dead-waivers", str(bad)]) == 1
    assert json.loads(capsys.readouterr().out)["version"] == "2.1.0"


# ----------------------------------- suppression parsing (hypothesis)

_RULE_IDS = st.sampled_from([f"RPL{i:03d}" for i in range(1, 17)])


@given(codes=st.lists(_RULE_IDS, min_size=1, max_size=5, unique=True), spaces=st.integers(0, 3))
def test_multi_code_waivers_parse(codes, spaces):
    """Any code list — any order, any spacing — suppresses exactly the
    listed rules on that line."""
    sep = "," + " " * spaces
    source = f"import numpy as np\n\nx = np.unique(a, axis=0)  # repro: noqa[{sep.join(codes)}]\n"
    ctx = build_context("src/repro/core/m.py", source)
    assert ctx.suppressions == {3: set(codes)}


@given(pad=st.text(alphabet=" \t", max_size=4))
def test_blanket_waiver_whitespace_insensitive(pad):
    source = f"import numpy as np\n\nx = np.unique(a, axis=0)  #{pad}repro: noqa\n"
    ctx = build_context("src/repro/core/m.py", source)
    assert ctx.suppressions == {3: set()}


@given(decorators=st.integers(min_value=1, max_value=4))
def test_waiver_on_decorated_def_attaches_to_its_line(decorators):
    """A suppression on a decorated def's own line stays on that line —
    decorator stacking must not shift it."""
    dec_lines = "".join(f"@deco{i}\n" for i in range(decorators))
    source = f"{dec_lines}def f(x=[]):  # repro: noqa[RPL007]\n    return x\n"
    ctx = build_context("src/repro/core/m.py", source)
    assert ctx.suppressions == {decorators + 1: {"RPL007"}}
    assert [d for d in lint_contexts([ctx], ALL_RULES) if d.rule == "RPL007"] == []


def test_noqa_inside_string_literal_is_not_a_waiver():
    """Tokenize-based parsing: noqa-shaped *strings* neither suppress
    nor register as (dead) waivers."""
    source = '"""m."""\n__all__ = ["S"]\n\nS = "x  # repro: noqa[RPL004]"\n'
    ctx = build_context("src/repro/core/m.py", source)
    assert ctx.suppressions == {}
    lint_contexts([ctx], ALL_RULES)
    assert find_dead_waivers([ctx]) == []


def test_repo_waiver_inventory_is_live():
    """Every waiver currently in the repo suppresses something: the
    full-surface dead-waiver audit comes back empty."""
    repo_root = Path(__file__).resolve().parents[1]
    paths = [repo_root / p for p in ("src", "tests", "benchmarks", "examples")]
    diagnostics = lint_paths([p for p in paths if p.exists()], dead_waivers=True)
    dead = [d for d in diagnostics if d.rule == DEAD_WAIVER_ID]
    assert dead == [], [d.format() for d in dead]
