"""The determinism linter's own test wall: rule detection on fixture
files (including the minimized PR 8 set-iteration bug), suppression
semantics, baseline round-trips and CLI exit codes."""

import json
import pathlib
import textwrap

import pytest

from repro.analysis.lint import (ALL_RULES, Baseline, lint_file,
                                 lint_paths, lint_source,
                                 load_baseline, main, write_baseline)
from repro.analysis.lint.baseline import diff_against_baseline

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "detlint"


def rules_of(findings):
    return sorted({f.rule for f in findings})


def lint_fixture(name, relpath=None):
    return lint_file(str(FIXTURES / name),
                     relpath=relpath or f"simulate/{name}")


# ----------------------------------------------------------- fixtures
def test_pr8_set_iteration_bug_is_flagged():
    """The exact defect class the differential harness caught at
    runtime in PR 8 must be caught statically: kill-order iteration
    over a set of identity-hashed Process objects."""
    findings = lint_fixture("bad_pr8_set_iteration.py")
    det001 = [f for f in findings if f.rule == "DET001"]
    assert det001, "DET001 must flag the kill loop"
    assert any("self.victims" in f.message for f in det001)
    assert any("for proc in self.victims" in f.source_line
               for f in det001)


def test_known_bad_fixture_trips_every_rule_family():
    findings = lint_fixture("bad_all_rules.py")
    assert rules_of(findings) == sorted(ALL_RULES)
    # two DET001 shapes: list() materialization and set.pop()
    det001 = [f for f in findings if f.rule == "DET001"]
    assert len(det001) == 2


def test_known_good_fixture_is_clean():
    assert lint_fixture("good_clean.py") == []


def test_fixture_findings_carry_fixits_and_positions():
    for finding in lint_fixture("bad_all_rules.py"):
        assert finding.line > 0
        assert finding.fixit  # every rule documents its remedy
        assert finding.rule in finding.render()


# ------------------------------------------------- rule unit behaviour
def test_det001_layers_do_not_gate_but_det002_does():
    """DET001 applies everywhere; DET002 only in the event-ordering
    layers (simulate/replication/mpi/intra)."""
    src = "order = sorted(stuff, key=id)\nbad = list({1, 2})\n"
    everywhere = lint_source(src, "kernels/somefile.py")
    layered = lint_source(src, "simulate/somefile.py")
    assert rules_of(everywhere) == ["DET001"]
    assert rules_of(layered) == ["DET001", "DET002"]


def test_det003_exempts_perf_timing_code():
    src = "import time\nt0 = time.perf_counter()\n"
    assert rules_of(lint_source(src, "scenarios/x.py")) == ["DET003"]
    assert lint_source(src, "perf/x.py") == []
    assert lint_source(src, "benchmarks/x.py") == []


def test_det003_seeded_randomness_is_allowed():
    src = textwrap.dedent("""\
        import random
        import numpy as np
        rng = random.Random(7)
        gen = np.random.default_rng(7)
        value = rng.random() + gen.standard_normal()
        """)
    assert lint_source(src, "scenarios/x.py") == []


def test_det003_numpy_global_state_is_flagged():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert rules_of(lint_source(src, "scenarios/x.py")) == ["DET003"]
    unseeded = "import numpy as np\ng = np.random.default_rng()\n"
    assert rules_of(lint_source(unseeded,
                                "scenarios/x.py")) == ["DET003"]


def test_env001_only_envflags_may_read_environ():
    src = "import os\nflag = os.environ.get('X', '')\n"
    assert rules_of(lint_source(src, "anymodule.py")) == ["ENV001"]
    assert lint_source(src, "_envflags.py") == []
    getenv = "import os\nflag = os.getenv('X')\n"
    assert rules_of(lint_source(getenv, "anymodule.py")) == ["ENV001"]


def test_orc001_flags_global_setters_off_the_allowlist():
    setter = textwrap.dedent("""\
        FLAG = True
        def {name}(v):
            {doc}global FLAG
            prev = FLAG
            FLAG = v
            return prev
        """)
    # documenting an oracle fallback no longer excuses a toggle
    documented = setter.format(
        name="set_flag",
        doc='"""Falls back to the bit-exact oracle loop."""\n    ')
    assert rules_of(lint_source(documented, "m.py")) == ["ORC001"]
    allowed = setter.format(name="set_cache_backend", doc="")
    assert lint_source(allowed, "m.py") == []
    # only module-level setters that write a global are in scope
    nested = "def outer():\n" + textwrap.indent(
        setter.format(name="set_flag", doc=""), "    ")
    assert lint_source(nested, "m.py") == []
    local = "def set_flag(v):\n    flag = v\n    return flag\n"
    assert lint_source(local, "m.py") == []


def test_det001_sorted_wrapping_is_the_documented_remedy():
    assert lint_source("for x in sorted({3, 1}):\n    pass\n",
                       "m.py") == []
    flagged = lint_source("for x in {3, 1}:\n    pass\n", "m.py")
    assert rules_of(flagged) == ["DET001"]


# ---------------------------------------------------------- suppression
def test_justified_suppression_silences_the_finding():
    src = ("bad = list({1, 2})  "
           "# detlint: ignore[DET001] -- test fixture, order unused\n")
    assert lint_source(src, "m.py") == []


def test_unjustified_suppression_does_not_suppress():
    src = "bad = list({1, 2})  # detlint: ignore[DET001]\n"
    findings = lint_source(src, "m.py")
    assert rules_of(findings) == ["DET001"]
    assert "justification" in findings[0].message


def test_suppression_is_rule_specific():
    src = ("bad = list({1, 2})  "
           "# detlint: ignore[ENV001] -- wrong rule cited\n")
    assert rules_of(lint_source(src, "m.py")) == ["DET001"]


def test_comment_line_suppression_covers_the_statement_below():
    src = textwrap.dedent("""\
        # detlint: ignore[DET001] -- the justification can span
        # several comment lines above a long statement
        bad = list({1, 2})
        """)
    assert lint_source(src, "m.py") == []


# ------------------------------------------------------------- baseline
def test_baseline_round_trip(tmp_path):
    findings = lint_fixture("bad_all_rules.py")
    path = tmp_path / "baseline.json"
    write_baseline(str(path), Baseline.from_findings(findings))
    loaded = load_baseline(str(path))
    new, stale = diff_against_baseline(findings, loaded)
    assert new == [] and stale == []
    # the file is stable: load -> write -> identical bytes
    before = path.read_bytes()
    write_baseline(str(path), loaded)
    assert path.read_bytes() == before


def test_baseline_blocks_only_new_findings(tmp_path):
    findings = lint_fixture("bad_all_rules.py")
    baseline = Baseline.from_findings(findings[:-1])
    new, stale = diff_against_baseline(findings, baseline)
    assert new == [findings[-1]]
    assert stale == []


def test_baseline_reports_fixed_findings_as_stale():
    findings = lint_fixture("bad_all_rules.py")
    baseline = Baseline.from_findings(findings)
    new, stale = diff_against_baseline(findings[:-1], baseline)
    assert new == []
    assert stale == [findings[-1].fingerprint()]


def test_fingerprints_survive_line_drift():
    src = "bad = list({1, 2})\n"
    shifted = "\n\n# a comment\n" + src
    (a,) = lint_source(src, "m.py")
    (b,) = lint_source(shifted, "m.py")
    assert a.line != b.line
    assert a.fingerprint() == b.fingerprint()


# ------------------------------------------------------------------ CLI
def test_cli_exits_nonzero_on_the_pr8_fixture(tmp_path, capsys):
    rc = main([str(FIXTURES / "bad_pr8_set_iteration.py"),
               "--no-baseline", "--root", str(FIXTURES)])
    assert rc == 1
    assert "DET001" in capsys.readouterr().out


def test_cli_exits_zero_on_clean_input(tmp_path, capsys):
    rc = main([str(FIXTURES / "good_clean.py"), "--no-baseline",
               "--root", str(FIXTURES)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "0 new finding(s)" in out


def test_cli_update_baseline_then_clean_exit(tmp_path, capsys):
    baseline = tmp_path / "b.json"
    target = str(FIXTURES / "bad_all_rules.py")
    common = [target, "--baseline", str(baseline),
              "--root", str(FIXTURES)]
    assert main(common) == 1                       # findings, no baseline
    assert main(common + ["--update-baseline"]) == 0
    assert json.loads(baseline.read_text())["findings"]
    assert main(common) == 0                       # baseline-only: clean
    capsys.readouterr()


def test_cli_json_format_is_machine_readable(capsys):
    rc = main([str(FIXTURES / "bad_pr8_set_iteration.py"),
               "--no-baseline", "--format", "json",
               "--root", str(FIXTURES)])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert any(f["rule"] == "DET001" for f in payload)
    assert all({"path", "line", "message", "fixit",
                "fingerprint"} <= set(f) for f in payload)


def test_cli_rule_filter(capsys):
    rc = main([str(FIXTURES / "bad_all_rules.py"), "--no-baseline",
               "--rule", "ENV001", "--root", str(FIXTURES)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "ENV001" in out and "DET001" not in out


# ------------------------------------------------- the repo's own state
def test_src_repro_is_lint_clean_against_the_checked_in_baseline():
    """The acceptance invariant: `make lint` exits 0 on the repo, and
    the ENV001 baseline is empty (all raw environ reads are routed
    through repro._envflags)."""
    root = pathlib.Path(__file__).resolve().parents[2]
    findings = lint_paths([str(root / "src" / "repro")],
                          root=str(root))
    baseline = load_baseline(str(root / "tools"
                                 / "detlint_baseline.json"))
    new, _stale = diff_against_baseline(findings, baseline)
    assert new == [], "\n".join(f.render() for f in new)
    assert not any(f.rule == "ENV001" for f in findings), \
        "ENV001 must stay fixed, not baselined"


def test_fixture_paths_note():
    """Fixtures are linted under synthetic relpaths (`simulate/...`)
    so the layer-gated rules apply; keep that invariant explicit."""
    with pytest.raises(AssertionError):
        assert rules_of(lint_fixture("bad_all_rules.py",
                                     relpath="unlayered.py")) \
            == sorted(ALL_RULES)
