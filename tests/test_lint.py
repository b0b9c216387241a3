"""Tests for the reprolint static-analysis framework (docs/LINTING.md).

Three layers of coverage: the tree itself must lint clean (this is the
tier-1 wiring for ``python -m repro.analysis lint``), each built-in
rule gets golden fixture snippets proving it fires where it should and
stays quiet where it should not, and the driver's own behaviours
(stale suppressions, syntax errors, CLI usage errors, ci.sh) get
targeted coverage.
"""

import os
import stat
import subprocess
import sys

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.check import run_lint
from repro.check.driver import DEFAULT_LINT_DIRS, lint_file_detail, repo_root
from repro.check.findings import Finding, format_finding
from repro.check.rules import all_rules, get_rule

ROOT = repo_root()

FILE_RULE_IDS = [r.id for r in all_rules() if r.scope == "file"]


def _write(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _lint_snippet(tmp_path, relpath, source, rules):
    """Lint one synthetic file rooted at ``tmp_path``.

    Returns (kept findings, suppressed count).
    """
    path = _write(tmp_path, relpath, source)
    result = lint_file_detail(str(path), str(tmp_path), list(rules))
    return result.kept, len(result.suppressed)


# ---------------------------------------------------------------------------
# the tree itself
# ---------------------------------------------------------------------------

def test_tree_lints_clean():
    """The tier-1 gate: the repository has zero lint errors."""
    report = run_lint()
    assert report.errors == [], report.render()
    assert report.ok and report.exit_code == 0


def test_cli_lint_exits_zero(capsys):
    assert analysis_main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "reprolint: OK" in out


def test_cli_list_rules(capsys):
    assert analysis_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.id in out


def test_rule_catalog_documented():
    """docs/LINTING.md names every registered rule."""
    text = (ROOT / "docs" / "LINTING.md").read_text()
    for rule in all_rules():
        assert f"`{rule.id}`" in text, f"{rule.id} missing from docs/LINTING.md"


# ---------------------------------------------------------------------------
# framework mechanics
# ---------------------------------------------------------------------------

def test_finding_rejects_bad_severity():
    with pytest.raises(ValueError):
        Finding(path="x.py", line=1, rule="r", severity="fatal", message="m")


def test_format_finding():
    finding = Finding(path="a/b.py", line=7, rule="stats-emit",
                      severity="error", message="boom")
    assert format_finding(finding) == "a/b.py:7: [stats-emit] error: boom"


def test_unknown_rule_raises():
    with pytest.raises(KeyError):
        get_rule("no-such-rule")


def test_inline_suppression(tmp_path):
    source = (
        '"""doc."""\n'
        "def f(x=[]):  # reprolint: disable=mutable-default\n"
        "    return x\n"
    )
    kept, suppressed = _lint_snippet(
        tmp_path, "src/repro/mod.py", source, ["mutable-default"])
    assert kept == [] and suppressed == 1


def test_standalone_suppression_covers_next_line(tmp_path):
    source = (
        '"""doc."""\n'
        "# reprolint: disable=mutable-default\n"
        "def f(x=[]):\n"
        "    return x\n"
    )
    kept, suppressed = _lint_snippet(
        tmp_path, "src/repro/mod.py", source, ["mutable-default"])
    assert kept == [] and suppressed == 1


def test_suppress_all(tmp_path):
    source = (
        "def f(x=[]):  # reprolint: disable=all\n"
        "    return x\n"
    )
    kept, suppressed = _lint_snippet(
        tmp_path, "src/repro/mod.py", source,
        ["mutable-default", "module-docstring"])
    # module-docstring anchors at line 1, which carries disable=all.
    assert kept == [] and suppressed == 2


# ---------------------------------------------------------------------------
# golden snippets, one pair per file rule
# ---------------------------------------------------------------------------

def test_module_docstring_rule(tmp_path):
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/bad.py", "x = 1\n", ["module-docstring"])
    assert [f.rule for f in kept] == ["module-docstring"]
    assert kept[0].line == 1

    kept, _ = _lint_snippet(
        tmp_path, "src/repro/good.py", '"""doc."""\nx = 1\n',
        ["module-docstring"])
    assert kept == []

    # outside src/repro the rule does not apply
    kept, _ = _lint_snippet(
        tmp_path, "scripts/tool.py", "x = 1\n", ["module-docstring"])
    assert kept == []


def test_stats_emit_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "def f(self):\n"
        "    self.stats.demand_reads += 1\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", bad, ["stats-emit"])
    assert [f.rule for f in kept] == ["stats-emit"]
    assert kept[0].line == 3

    good = (
        '"""doc."""\n'
        "def f(self):\n"
        "    self.stats.demand_reads += 1\n"
        "    self.tracer.tick()\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", good, ["stats-emit"])
    assert kept == []

    # the rule is scoped to core/
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/analysis/mod.py", bad, ["stats-emit"])
    assert kept == []


def test_emit_registered_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "def f(self):\n"
        '    self.tracer.emit("not_a_real_event")\n'
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", bad, ["emit-registered"])
    assert [f.rule for f in kept] == ["emit-registered"]

    good = (
        '"""doc."""\n'
        "def f(self):\n"
        '    self.tracer.emit("repack", extra=2)\n'
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", good, ["emit-registered"])
    assert kept == []


def test_journal_event_registered_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "def f(journal):\n"
        '    journal.event("not_a_real_event", jobs=1)\n'
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/runner/mod.py", bad,
        ["journal-event-registered"])
    assert [f.rule for f in kept] == ["journal-event-registered"]
    assert "EVENT_SCHEMA" in kept[0].message

    good = (
        '"""doc."""\n'
        "def f(journal):\n"
        '    journal.event("run_start", jobs=1, cache_enabled=True)\n'
        '    journal.event("compare", db="x", run_a="a", run_b="b",\n'
        "                  metrics=3, regressions=0)\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/runner/mod.py", good,
        ["journal-event-registered"])
    assert kept == []

    # scripts/ are in scope too; dynamic (non-literal) names are not.
    kept, _ = _lint_snippet(
        tmp_path, "scripts/tool.py", bad, ["journal-event-registered"])
    assert [f.rule for f in kept] == ["journal-event-registered"]
    dynamic = (
        '"""doc."""\n'
        "def f(journal, name):\n"
        "    journal.event(name, jobs=1)\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/runner/mod.py", dynamic,
        ["journal-event-registered"])
    assert kept == []


def test_hot_path_wallclock_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "import time\n"
        "def f():\n"
        "    return time.perf_counter()\n"
    )
    for hot_dir in ("core", "memory", "compression", "pressure"):
        kept, _ = _lint_snippet(
            tmp_path, f"src/repro/{hot_dir}/mod.py", bad,
            ["hot-path-wallclock"])
        assert [f.rule for f in kept] == ["hot-path-wallclock"], hot_dir
        assert kept[0].line == 4

    # analysis/ may read the wall clock (timing tables)
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/analysis/mod.py", bad, ["hot-path-wallclock"])
    assert kept == []


def test_hot_path_wallclock_seeded_constructor_exempt(tmp_path):
    """Explicitly seeded RNG constructors are the fix, not the bug."""
    seeded = (
        '"""doc."""\n'
        "import numpy as np\n"
        "def f(stable):\n"
        "    a = np.random.RandomState(stable)\n"
        "    b = np.random.default_rng(seed=stable)\n"
        "    return a, b\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/pressure/mod.py", seeded,
        ["hot-path-wallclock"])
    assert kept == []

    unseeded = seeded.replace("np.random.RandomState(stable)",
                              "np.random.RandomState()")
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/pressure/mod.py", unseeded,
        ["hot-path-wallclock"])
    assert [f.line for f in kept] == [4]

    good = (
        '"""doc."""\n'
        "def f(rng):\n"
        "    return rng.randint(0, 4)\n"   # seeded RandomState passed in
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", good, ["hot-path-wallclock"])
    assert kept == []


def test_mutable_default_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "def f(a, b=[], *, c={}):\n"
        "    return a\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/mod.py", bad, ["mutable-default"])
    assert [f.rule for f in kept] == ["mutable-default"] * 2

    good = (
        '"""doc."""\n'
        "def f(a, b=None, c=(), d=0):\n"
        "    return a\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/mod.py", good, ["mutable-default"])
    assert kept == []


def test_machine_constant_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "import dataclasses\n"
        "LINE_SIZE = 64\n"
        "CHUNK_BYTES = 512\n"
        "@dataclasses.dataclass\n"
        "class Config:\n"
        "    chunk_size: int = 512\n"
        "def allocate(n, page_size=4096, *, cpu_freq_ghz=3.0):\n"
        "    lines_per_page = 64\n"
        "    return n * lines_per_page\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", bad, ["machine-constant"])
    assert sorted(f.line for f in kept) == [3, 4, 7, 8, 8, 9]

    good = (
        '"""doc."""\n'
        "from repro.machine import CHUNK_BYTES\n"
        "def allocate(n, chunks=1):\n"
        "    return n * chunks * CHUNK_BYTES\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", good, ["machine-constant"])
    assert kept == []

    # The one definition site and code outside the package are exempt.
    for relpath in ("src/repro/machine.py", "scripts/tool.py"):
        kept, _ = _lint_snippet(tmp_path, relpath, bad, ["machine-constant"])
        assert kept == []


def test_unused_import_rule(tmp_path):
    source = (
        '"""doc."""\n'
        "import os\n"
        "import json.decoder\n"
        "import sys  # reprolint: disable=unused-import\n"
        "from typing import Dict, List, Optional\n"
        "from .sibling import exported\n"
        "__all__ = ['exported']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return json.decoder.JSONDecoder, x\n"
    )
    kept, suppressed = _lint_snippet(
        tmp_path, "src/repro/mod.py", source, ["unused-import"])
    assert [(f.line, f.message) for f in kept] == [
        (2, "'os' imported but unused"),
        (5, "'Dict' imported but unused"),
    ]
    assert suppressed == 1

    kept, _ = _lint_snippet(
        tmp_path, "src/repro/pkg/__init__.py", '"""doc."""\nimport os\n',
        ["unused-import"])
    assert kept == []


def test_stats_field_exists_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "def f(stats):\n"
        "    return stats.no_such_counter\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/obs/mod.py", bad, ["stats-field-exists"])
    assert [f.rule for f in kept] == ["stats-field-exists"]

    good = (
        '"""doc."""\n'
        "def f(stats):\n"
        "    return stats.demand_reads + stats.extra_accesses\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/analysis/mod.py", good, ["stats-field-exists"])
    assert kept == []

    # unrelated objects are not screened
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/obs/mod.py",
        '"""doc."""\ndef f(other):\n    return other.no_such_counter\n',
        ["stats-field-exists"])
    assert kept == []


def test_bare_except_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except:\n"
        "        pass\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/mod.py", bad, ["bare-except"])
    assert [f.rule for f in kept] == ["bare-except"]
    assert kept[0].line == 5

    swallowed = (
        '"""doc."""\n'
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:\n"
        "        pass\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/mod.py", swallowed, ["bare-except"])
    assert [f.rule for f in kept] == ["bare-except"]
    assert "swallows" in kept[0].message

    # a broad handler that DOES something is allowed (the runner's
    # worker shim reports BaseException back over the queue)
    handled = (
        '"""doc."""\n'
        "def f(queue):\n"
        "    try:\n"
        "        g()\n"
        "    except BaseException as exc:\n"
        "        queue.put(repr(exc))\n"
        "    try:\n"
        "        h()\n"
        "    except OSError:\n"
        "        pass\n"   # narrow swallow is a judgement call, not flagged
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/mod.py", handled, ["bare-except"])
    assert kept == []


def test_recovery_traced_rule(tmp_path):
    bad = (
        '"""doc."""\n'
        "def _recover_page(self, page):\n"
        "    self.stats.recoveries += 1\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", bad, ["recovery-traced"])
    assert [f.rule for f in kept] == ["recovery-traced"]
    assert kept[0].line == 2

    good = (
        '"""doc."""\n'
        "def _recover_page(self, page):\n"
        "    self.stats.recoveries += 1\n"
        '    self.tracer.emit("recovery_uncompressed", page=page)\n'
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/core/mod.py", good, ["recovery-traced"])
    assert kept == []

    # scoped to core/: the injector itself is not a recovery path
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/inject/mod.py", bad, ["recovery-traced"])
    assert kept == []


def test_degraded_transition_traced_rule(tmp_path):
    rule = ["degraded-transition-traced"]
    bad = (
        '"""doc."""\n'
        "def _enter(self):\n"
        "    self.degraded_mode = True\n"
    )
    for relpath in ("src/repro/core/mod.py", "src/repro/pressure/mod.py"):
        kept, _ = _lint_snippet(tmp_path, relpath, bad, rule)
        assert [f.rule for f in kept] == rule, relpath
        assert kept[0].line == 2

    good = (
        '"""doc."""\n'
        "def _enter(self):\n"
        "    self.in_pressure = True\n"
        '    self.tracer.emit("pressure_enter", extra=0)\n'
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/pressure/mod.py", good, rule)
    assert kept == []

    # __init__ establishes the initial state; that is not a transition.
    init = (
        '"""doc."""\n'
        "class C:\n"
        "    def __init__(self):\n"
        "        self.in_pressure = False\n"
        "        self.degraded_since = None\n"
    )
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/pressure/mod.py", init, rule)
    assert kept == []

    # scoped to core/ and pressure/: workloads may reuse the names
    kept, _ = _lint_snippet(
        tmp_path, "src/repro/workloads/mod.py", bad, rule)
    assert kept == []


# ---------------------------------------------------------------------------
# project rules
# ---------------------------------------------------------------------------

def test_doc_links_rule_flags_broken_link(tmp_path):
    (tmp_path / "README.md").write_text(
        "see [missing](does/not/exist.md) and [ok](README.md)\n")
    rule = get_rule("doc-links")
    findings = list(rule.check_project(tmp_path))
    broken = [f for f in findings if "broken link" in f.message]
    assert len(broken) == 1
    assert "does/not/exist.md" in broken[0].message
    # the other tracked docs are missing entirely in this sandbox
    assert any(f.message == "file missing" for f in findings)


def test_doc_links_rule_skips_fenced_blocks(tmp_path):
    (tmp_path / "README.md").write_text(
        "```python\nrow[combo](fake_link.md)\n```\n[real](broken.md)\n")
    rule = get_rule("doc-links")
    broken = [f for f in rule.check_project(tmp_path)
              if "broken link" in f.message]
    assert [f.line for f in broken] == [4]
    assert "broken.md" in broken[0].message


def test_config_knob_rule_flags_undocumented_field(tmp_path):
    config = tmp_path / "src/repro/core/config.py"
    config.parent.mkdir(parents=True)
    config.write_text(
        '"""doc."""\n'
        "class CompressoConfig:\n"
        "    documented_knob: int = 1\n"
        "    zzz_secret_knob: int = 2\n"
    )
    (tmp_path / "README.md").write_text("only documented_knob is here\n")
    rule = get_rule("config-knob-documented")
    findings = list(rule.check_project(tmp_path))
    undocumented = [f for f in findings if "zzz_secret_knob" in f.message]
    assert len(undocumented) == 1
    assert undocumented[0].line == 4
    assert not any("documented_knob" in f.message
                   for f in findings if "zzz" not in f.message)


def test_default_lint_dirs_exist():
    for directory in DEFAULT_LINT_DIRS:
        assert (ROOT / directory).is_dir()


# ---------------------------------------------------------------------------
# stale suppressions
# ---------------------------------------------------------------------------

def test_stale_suppression_warns(tmp_path):
    _write(tmp_path, "src/repro/mod.py", (
        '"""doc."""\n'
        "x = 1  # reprolint: disable=mutable-default\n"
    ))
    report = run_lint(root=tmp_path)
    stale = [f for f in report.findings if f.rule == "stale-suppression"]
    assert len(stale) == 1
    assert stale[0].line == 2 and stale[0].severity == "warning"
    assert "mutable-default" in stale[0].message


def test_used_suppression_does_not_warn(tmp_path):
    _write(tmp_path, "src/repro/mod.py", (
        '"""doc."""\n'
        "def f(x=[]):  # reprolint: disable=mutable-default\n"
        "    return x\n"
    ))
    report = run_lint(root=tmp_path)
    assert not [f for f in report.findings
                if f.rule == "stale-suppression"]


def test_docstring_disable_text_is_not_a_suppression(tmp_path):
    _write(tmp_path, "src/repro/mod.py", (
        '"""Example: # reprolint: disable=mutable-default ."""\n'
        "x = 1\n"
    ))
    report = run_lint(root=tmp_path)
    assert not [f for f in report.findings
                if f.rule == "stale-suppression"]


# ---------------------------------------------------------------------------
# driver failure edges
# ---------------------------------------------------------------------------

def test_syntax_error_becomes_structured_finding(tmp_path):
    kept, suppressed = _lint_snippet(
        tmp_path, "src/repro/broken.py", '"""doc."""\ndef f(:\n    pass\n',
        FILE_RULE_IDS)
    assert suppressed == 0
    assert [f.rule for f in kept] == ["syntax-error"]
    assert kept[0].severity == "error"
    assert kept[0].path == "src/repro/broken.py"


def test_empty_file_is_handled(tmp_path):
    kept, suppressed = _lint_snippet(
        tmp_path, "src/repro/empty.py", "", FILE_RULE_IDS)
    assert suppressed == 0
    assert [f.rule for f in kept] == ["module-docstring"]


# ---------------------------------------------------------------------------
# CLI: paths resolve against the working directory; bad input is a usage
# error (exit 2, one line, no traceback), never a crash
# ---------------------------------------------------------------------------

def _lint_cli(*args, cwd=ROOT):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", "lint", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_cli_lint_relative_path_from_repo_root():
    proc = _lint_cli("src/repro/core/controller.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reprolint: OK (1 files" in proc.stdout


@pytest.mark.parametrize("args, message", [
    (["does/not/exist.py"], "no such file: does/not/exist.py"),
    (["outside.py"], "outside.py is outside the repository"),
    (["--rules", "nope"], "unknown rule id(s) nope; known: bare-except"),
])
def test_cli_lint_usage_errors_exit_2(tmp_path, args, message):
    (tmp_path / "outside.py").write_text('"""doc."""\n')
    proc = _lint_cli(*args, cwd=tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines()
              if line.startswith("python -m repro.analysis lint: error:")]
    assert len(errors) == 1 and message in errors[0], proc.stderr


# ---------------------------------------------------------------------------
# ci.sh
# ---------------------------------------------------------------------------

def test_ci_script_is_executable_and_green():
    script = ROOT / "scripts" / "ci.sh"
    assert script.is_file()
    assert script.stat().st_mode & stat.S_IXUSR, "ci.sh lost its +x bit"
    text = script.read_text()
    assert "repro.analysis lint" in text and "pytest" in text

    env = dict(os.environ, CI_SKIP_TESTS="1")
    env.pop("PYTHONPATH", None)          # the script must set it itself
    proc = subprocess.run(["bash", str(script)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ci: OK" in proc.stdout
