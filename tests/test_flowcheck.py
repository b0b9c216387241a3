"""Tests for the whole-program flow engine (docs/FLOWCHECK.md).

Three layers: the repo itself must pass ``lint --deep`` (the tier-1
acceptance gate), golden sandbox trees prove each flow rule catches a
seeded violation that the per-file rules provably miss, and the
engine/driver mechanics (symbol resolution, CHA dispatch,
stale suppressions, syntax-error workers, --jobs parity, ci.sh) get
targeted coverage.
"""

import json
import os
import stat
import subprocess

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.check import run_lint
from repro.check.driver import discover_files, lint_file, repo_root
from repro.check.flow import FlowProgram, flow_rule_ids
from repro.check.rules import all_rules

ROOT = repo_root()

FILE_RULE_IDS = [r.id for r in all_rules() if r.scope == "file"]
FLOW_RULE_IDS = set(flow_rule_ids())


def _write(root, relpath, source):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _flow_findings(report, rule=None):
    wanted = {rule} if rule else FLOW_RULE_IDS
    return [f for f in report.findings if f.rule in wanted]


# ---------------------------------------------------------------------------
# the repo itself: the acceptance gate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def repo_deep_report():
    return run_lint(deep=True)


def test_repo_deep_lint_clean(repo_deep_report):
    """tier-1 gate: zero error findings under ``lint --deep``."""
    assert repo_deep_report.errors == [], repo_deep_report.render()
    assert repo_deep_report.exit_code == 0


def test_repo_deep_parallel_matches_serial():
    """--jobs N output is byte-identical to serial for --deep."""
    serial = run_lint(deep=True, jobs=1)
    parallel = run_lint(deep=True, jobs=2)
    assert serial.render() == parallel.render()


def test_flow_rules_registered():
    ids = {r.id for r in all_rules()}
    assert FLOW_RULE_IDS <= ids
    assert {"determinism-taint", "shared-state-race",
            "exception-escape"} == FLOW_RULE_IDS


# ---------------------------------------------------------------------------
# golden sandbox: determinism-taint
# ---------------------------------------------------------------------------

JOURNAL_SRC = (
    '"""doc."""\n'
    "class RunJournal:\n"
    "    def event(self, event, **fields):\n"
    "        return dict(fields)\n"
)

TAINT_APP_SRC = (
    '"""doc."""\n'
    "import time\n"
    "from ..runner.journal import RunJournal\n"
    "\n"
    "def jitter():\n"
    "    return time.perf_counter()\n"
    "\n"
    "def record(journal: RunJournal, value):\n"
    '    journal.event("unit_end", value=value + jitter())\n'
)


def _taint_sandbox(tmp_path):
    _write(tmp_path, "src/repro/runner/journal.py", JOURNAL_SRC)
    _write(tmp_path, "src/repro/analysis/app.py", TAINT_APP_SRC)
    return tmp_path


def test_determinism_taint_catches_interprocedural_flow(tmp_path):
    """A wall-clock read two calls away from the journal sink."""
    root = _taint_sandbox(tmp_path)
    report = run_lint(root=root, deep=True)
    hits = _flow_findings(report, "determinism-taint")
    assert len(hits) == 1
    assert hits[0].path == "src/repro/analysis/app.py"
    assert "time.perf_counter" in hits[0].message
    assert "jitter" in hits[0].message          # the witness chain


def test_determinism_taint_invisible_to_per_file_rules(tmp_path):
    """The same file passes every per-file rule — only flow sees it."""
    root = _taint_sandbox(tmp_path)
    app = root / "src/repro/analysis/app.py"
    kept, suppressed = lint_file(str(app), str(root), FILE_RULE_IDS)
    assert kept == [] and suppressed == 0


def test_determinism_taint_respects_boundary_annotation(tmp_path):
    """A boundary on the tainted helper stops propagation to callers."""
    root = _taint_sandbox(tmp_path)
    _write(root, "src/repro/analysis/app.py", TAINT_APP_SRC.replace(
        "def jitter():",
        "# flowcheck: boundary(audited: clamped before journaling)\n"
        "def jitter():"))
    report = run_lint(root=root, deep=True)
    assert _flow_findings(report, "determinism-taint") == []


def test_determinism_taint_inline_suppression(tmp_path):
    root = _taint_sandbox(tmp_path)
    _write(root, "src/repro/analysis/app.py", TAINT_APP_SRC.replace(
        '    journal.event("unit_end", value=value + jitter())',
        "    # reprolint: disable=determinism-taint\n"
        '    journal.event("unit_end", value=value + jitter())'))
    report = run_lint(root=root, deep=True)
    assert _flow_findings(report, "determinism-taint") == []
    assert report.suppressed >= 1


def test_unseeded_constructor_is_source_seeded_is_not(tmp_path):
    rng_app = TAINT_APP_SRC.replace("import time\n", "import random\n")
    unseeded = rng_app.replace("    return time.perf_counter()",
                               "    return random.Random().random()")
    _write(tmp_path, "src/repro/runner/journal.py", JOURNAL_SRC)
    _write(tmp_path, "src/repro/analysis/app.py", unseeded)
    report = run_lint(root=tmp_path, deep=True)
    assert len(_flow_findings(report, "determinism-taint")) == 1

    seeded = rng_app.replace("    return time.perf_counter()",
                             "    return random.Random(1234).random()")
    _write(tmp_path, "src/repro/analysis/app.py", seeded)
    report = run_lint(root=tmp_path, deep=True)
    assert _flow_findings(report, "determinism-taint") == []


# ---------------------------------------------------------------------------
# golden sandbox: shared-state-race
# ---------------------------------------------------------------------------

RACE_SRC = (
    '"""doc."""\n'
    "import multiprocessing\n"
    "\n"
    "CACHE = {}\n"
    "\n"
    "def worker(n):\n"
    "    CACHE[n] = n * 2\n"
    "    return n\n"
    "\n"
    "def run(items):\n"
    "    with multiprocessing.Pool(2) as pool:\n"
    "        return pool.map(worker, items)\n"
)


def test_shared_state_race_catches_worker_global_write(tmp_path):
    _write(tmp_path, "src/repro/runner/mod.py", RACE_SRC)
    report = run_lint(root=tmp_path, deep=True)
    hits = _flow_findings(report, "shared-state-race")
    assert len(hits) == 1
    assert hits[0].line == 7                      # the CACHE[n] store
    assert "worker-reachable" in hits[0].message

    # per-file rules cannot connect pool.map to the write
    kept, _ = lint_file(str(tmp_path / "src/repro/runner/mod.py"),
                        str(tmp_path), FILE_RULE_IDS)
    assert kept == []


def test_shared_state_race_shared_ok_waiver(tmp_path):
    waived = RACE_SRC.replace(
        "    CACHE[n] = n * 2",
        "    # flowcheck: shared-ok(diagnostic counter, merged on join)\n"
        "    CACHE[n] = n * 2")
    _write(tmp_path, "src/repro/runner/mod.py", waived)
    report = run_lint(root=tmp_path, deep=True)
    assert _flow_findings(report, "shared-state-race") == []
    # and the annotation is consumed, so no stale warning either
    assert not [f for f in report.findings if f.rule == "stale-suppression"]


def test_shared_state_race_flags_lambda_dispatch(tmp_path):
    lam = RACE_SRC.replace("pool.map(worker, items)",
                           "pool.map(lambda n: n, items)")
    _write(tmp_path, "src/repro/runner/mod.py", lam)
    report = run_lint(root=tmp_path, deep=True)
    hits = _flow_findings(report, "shared-state-race")
    assert any("lambda" in f.message and "picklable" in f.message
               for f in hits)


def test_shared_state_race_ignores_undispatched_writes(tmp_path):
    quiet = RACE_SRC.replace("        return pool.map(worker, items)",
                             "        return list(items)")
    _write(tmp_path, "src/repro/runner/mod.py", quiet)
    report = run_lint(root=tmp_path, deep=True)
    assert _flow_findings(report, "shared-state-race") == []


# ---------------------------------------------------------------------------
# golden sandbox: exception-escape
# ---------------------------------------------------------------------------

ALLOC_SRC = (
    '"""doc."""\n'
    "class OutOfMemoryError(Exception):\n"
    "    pass\n"
    "\n"
    "def reserve(n):\n"
    "    if n > 4:\n"
    '        raise OutOfMemoryError("exhausted")\n'
    "    return n\n"
)

CTRL_SRC = (
    '"""doc."""\n'
    "from ..memory.allocator import OutOfMemoryError, reserve\n"
    "\n"
    "def install(n):\n"
    "    try:\n"
    "        return reserve(n)\n"
    "    except OutOfMemoryError:\n"
    "        return 0\n"
)

RUNNER_BAD_SRC = (
    '"""doc."""\n'
    "from ..memory.allocator import reserve\n"
    "\n"
    "def run(n):\n"
    "    return reserve(n)\n"
)

RUNNER_GOOD_SRC = (
    '"""doc."""\n'
    "from ..core.ctrl import install\n"
    "\n"
    "def run(n):\n"
    "    return install(n)\n"
)


def test_exception_escape_catches_uncaught_oom(tmp_path):
    _write(tmp_path, "src/repro/memory/allocator.py", ALLOC_SRC)
    _write(tmp_path, "src/repro/runner/exec.py", RUNNER_BAD_SRC)
    report = run_lint(root=tmp_path, deep=True)
    hits = _flow_findings(report, "exception-escape")
    assert len(hits) == 1
    assert hits[0].path == "src/repro/runner/exec.py"
    assert hits[0].line == 5
    assert "OutOfMemoryError" in hits[0].message

    # per-file rules see nothing wrong with either file
    for rel in ("src/repro/memory/allocator.py", "src/repro/runner/exec.py"):
        kept, _ = lint_file(str(tmp_path / rel), str(tmp_path),
                            FILE_RULE_IDS)
        assert kept == [], rel


def test_exception_escape_accepts_core_caught_path(tmp_path):
    _write(tmp_path, "src/repro/memory/allocator.py", ALLOC_SRC)
    _write(tmp_path, "src/repro/core/ctrl.py", CTRL_SRC)
    _write(tmp_path, "src/repro/runner/exec.py", RUNNER_GOOD_SRC)
    report = run_lint(root=tmp_path, deep=True)
    assert _flow_findings(report, "exception-escape") == []


def test_exception_escape_respects_runner_local_try(tmp_path):
    caught = RUNNER_BAD_SRC.replace(
        "def run(n):\n    return reserve(n)",
        "def run(n):\n"
        "    try:\n"
        "        return reserve(n)\n"
        "    except Exception:\n"
        "        return None")
    _write(tmp_path, "src/repro/memory/allocator.py", ALLOC_SRC)
    _write(tmp_path, "src/repro/runner/exec.py", caught)
    report = run_lint(root=tmp_path, deep=True)
    assert _flow_findings(report, "exception-escape") == []


# ---------------------------------------------------------------------------
# engine mechanics
# ---------------------------------------------------------------------------

def test_symbol_table_chases_package_reexports(tmp_path):
    _write(tmp_path, "src/repro/runner/journal.py", JOURNAL_SRC)
    _write(tmp_path, "src/repro/runner/__init__.py",
           '"""doc."""\nfrom .journal import RunJournal\n')
    program = FlowProgram(tmp_path, discover_files(tmp_path))
    assert program.table.canonicalize("repro.runner.RunJournal") == \
        "repro.runner.journal.RunJournal"


def test_callgraph_resolves_cha_overrides(tmp_path):
    _write(tmp_path, "src/repro/core/shapes.py", (
        '"""doc."""\n'
        "class Base:\n"
        "    def handle(self):\n"
        "        return 0\n"
        "class Override(Base):\n"
        "    def handle(self):\n"
        "        return 1\n"
        "def call_it(obj):\n"
        "    return obj.handle()\n"
    ))
    program = FlowProgram(tmp_path, discover_files(tmp_path))
    callees = program.graph.callees("repro.core.shapes.call_it")
    assert "repro.core.shapes.Base.handle" in callees
    assert "repro.core.shapes.Override.handle" in callees


def test_callgraph_binds_typed_receivers(tmp_path):
    _write(tmp_path, "src/repro/core/typed.py", (
        '"""doc."""\n'
        "from dataclasses import dataclass\n"
        "class Unit:\n"
        "    def go(self):\n"
        "        return 1\n"
        "@dataclass\n"
        "class Task:\n"
        "    unit: Unit\n"
        "def drive(task: Task):\n"
        "    return task.unit.go()\n"
    ))
    program = FlowProgram(tmp_path, discover_files(tmp_path))
    callees = program.graph.callees("repro.core.typed.drive")
    assert "repro.core.typed.Unit.go" in callees


def test_dump_callgraph_artifact(tmp_path):
    root = _taint_sandbox(tmp_path)
    out = tmp_path / "graph.json"
    run_lint(root=root, deep=True, dump_callgraph=out)
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-callgraph/1"
    quals = {f["qual"] for f in doc["functions"]}
    assert "repro.analysis.app.record" in quals
    record = next(f for f in doc["functions"]
                  if f["qual"] == "repro.analysis.app.record")
    assert "repro.analysis.app.jitter" in record["calls"]


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


def test_stale_flowcheck_annotation_warns(tmp_path):
    _write(tmp_path, "src/repro/mod.py", (
        '"""doc."""\n'
        "# flowcheck: boundary(nothing here needs this)\n"
        "x = 1\n"
    ))
    report = run_lint(root=tmp_path, deep=True)
    stale = [f for f in report.findings if f.rule == "stale-suppression"]
    assert len(stale) == 1
    assert "boundary" in stale[0].message


# ---------------------------------------------------------------------------
# driver failure edges
# ---------------------------------------------------------------------------

def test_syntax_error_becomes_structured_finding(tmp_path):
    path = _write(tmp_path, "src/repro/broken.py",
                  '"""doc."""\ndef f(:\n    pass\n')
    kept, suppressed = lint_file(str(path), str(tmp_path), FILE_RULE_IDS)
    assert suppressed == 0
    assert [f.rule for f in kept] == ["syntax-error"]
    assert kept[0].severity == "error"
    assert kept[0].path == "src/repro/broken.py"


def test_syntax_error_survives_parallel_and_deep(tmp_path):
    _write(tmp_path, "src/repro/broken.py", '"""doc."""\ndef f(:\n')
    _write(tmp_path, "src/repro/fine.py", '"""doc."""\nx = 1\n')
    serial = run_lint(root=tmp_path, deep=True, jobs=1)
    parallel = run_lint(root=tmp_path, deep=True, jobs=2)
    assert serial.render() == parallel.render()
    assert any(f.rule == "syntax-error" for f in serial.findings)


def test_empty_file_is_handled(tmp_path):
    path = _write(tmp_path, "src/repro/empty.py", "")
    kept, suppressed = lint_file(str(path), str(tmp_path), FILE_RULE_IDS)
    assert suppressed == 0
    assert [f.rule for f in kept] == ["module-docstring"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_deep_lint_exits_zero(capsys):
    assert analysis_main(["lint", "--deep"]) == 0
    out = capsys.readouterr().out
    assert "reprolint: OK" in out


def test_cli_sarif_export(tmp_path, capsys):
    out = tmp_path / "lint.sarif.json"
    assert analysis_main(["lint", "--deep", "--sarif", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["tool"]["driver"]["name"] == "reprolint"


def test_cli_dump_callgraph(tmp_path, capsys):
    out = tmp_path / "graph.json"
    assert analysis_main(
        ["lint", "--deep", "--dump-callgraph", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["schema"] == "repro-callgraph/1"
    assert "repro.check.driver.run_lint" in {
        f["qual"] for f in doc["functions"]}


# ---------------------------------------------------------------------------
# ci.sh
# ---------------------------------------------------------------------------

def test_ci_script_is_executable_and_green():
    script = ROOT / "scripts" / "ci.sh"
    assert script.is_file()
    assert script.stat().st_mode & stat.S_IXUSR, "ci.sh lost its +x bit"
    text = script.read_text()
    assert "--deep" in text and "pytest" in text

    env = dict(os.environ, CI_SKIP_TESTS="1")
    env.pop("PYTHONPATH", None)          # the script must set it itself
    proc = subprocess.run(["bash", str(script)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ci: OK" in proc.stdout
