"""End-to-end command line coverage: all subcommands, exit codes, JSON."""

import importlib.util
import json
import os
import pkgutil
import subprocess
import sys

import pytest

from phl.cli import main

try:
    import resource
except ImportError:  # not on every platform
    resource = None

COIN = "while X > 0 do { X := X - 1 [1/2] skip }"

DIVERGE_DERIV = {
    "rule": "CONS",
    "conclusion": "{ true } while true do { skip } { P(true) = 0 }",
    "premises": [{
        "rule": "WHILE",
        "conclusion": "{ 0 = 0 } while true do { skip } { P(true) = 0 }",
    }],
}


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestRun:
    def test_point_state(self, capsys):
        rc, out, _ = run_cli(capsys, "run", "--program", "X := X + 1",
                             "--state", "X=1", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data == {"states": [{"prob": "1", "vars": {"X": 2}}],
                        "residual": "0", "iterations": 0, "exact": True}

    def test_geometric_loop_text(self, capsys):
        rc, out, _ = run_cli(
            capsys, "run", "--loop-bound", "4",
            "--program", "while X = 0 do { X :=$ {1/2:0, 1/2:1} }",
            "--state", "X=0")
        assert rc == 0
        assert "residual mass: 1/16" in out

    def test_dists_input(self, capsys, tmp_path):
        p = tmp_path / "mu.json"
        p.write_text(json.dumps([
            {"state": {"X": 0}, "prob": "1/2"},
            {"state": {"X": 3}, "prob": "1/2"},
        ]))
        rc, out, _ = run_cli(capsys, "run", "--program", "X := X * 2",
                             "--dists", str(p), "--format", "json")
        assert rc == 0
        assert json.loads(out)["states"] == [
            {"prob": "1/2", "vars": {"X": 0}}, {"prob": "1/2", "vars": {"X": 6}}]

    def test_choice_flags_are_not_shown(self, capsys):
        rc, out, _ = run_cli(capsys, "run", "--program", "X := 1 [1/2] X := 2",
                             "--state", "X=0")
        assert rc == 0
        assert out.splitlines()[:2] == ["  1/2  {X=1}", "  1/2  {X=2}"]
        assert "_F" not in out

    def test_choice_flags_merge_json(self, capsys):
        rc, out, _ = run_cli(capsys, "run", "--program", "X := 1 [1/2] X := 1",
                             "--state", "X=0", "--format", "json")
        assert rc == 0
        assert json.loads(out)["states"] == [{"prob": "1", "vars": {"X": 1}}]

    def test_written_and_input_variables_are_shown(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "run", "--program", "_F0 := 5; Y := 1 [1/3] Y := 2",
            "--state", "X=7", "--format", "json")
        assert rc == 0
        assert json.loads(out)["states"] == [
            {"prob": "1/3", "vars": {"X": 7, "Y": 1, "_F0": 5}},
            {"prob": "2/3", "vars": {"X": 7, "Y": 2, "_F0": 5}}]
        p = tmp_path / "mu.json"
        p.write_text(json.dumps([{"state": {"X": 0, "Z": 1}, "prob": "1"}]))
        rc, out, _ = run_cli(capsys, "run", "--program", "skip [1/2] skip",
                             "--dists", str(p), "--format", "json")
        assert rc == 0
        assert json.loads(out)["states"] == [{"prob": "1", "vars": {"X": 0, "Z": 1}}]

    def test_state_and_dists_conflict(self, capsys):
        rc, _, err = run_cli(capsys, "run", "--program", "skip",
                             "--state", "X=0", "--dists", "nope.json")
        assert rc == 2 and "error" in err


class TestTransformers:
    def test_wp_text(self, capsys):
        rc, out, _ = run_cli(capsys, "wp",
                             "--program", "while X = 0 do { X := 1 }",
                             "--post", "X = 1")
        assert rc == 0
        assert out.splitlines()[0] == "X = 0 || !(X = 0) && (X = 1)"
        assert "converged at 2" in out

    def test_wp_of_a_loop_is_its_last_approximant(self, capsys):
        rc, out, _ = run_cli(capsys, "wp",
                             "--program", "while X = -2 do { X :=$ {3/4:1, 1/4:0} }",
                             "--post", "X = 0")
        assert (rc, out) == (0, "!(X = -2) && (X = 0)\n"
                                "loop 0 (X = -2): converged at 3, 4 approximants\n")

    def test_pt_json(self, capsys):
        rc, out, _ = run_cli(capsys, "pt",
                             "--program", "while true do { skip }",
                             "--term", "P(true)", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert data["preterm"] == "0"
        assert data["loops"][0]["exhaustive"] is False

    def test_wpp(self, capsys):
        rc, out, _ = run_cli(capsys, "wpp", "--program", "X := X + 1",
                             "--post", "P(X = 2) <= 1/2")
        assert rc == 0 and out.splitlines()[0] == "P(X + 1 = 2) <= 1/2"

    def test_wpp_reports_loops_as_pt(self, capsys):
        bounds = ("--program", COIN, "--unroll", "4", "--depth", "2",
                  "--int-window", "0..3")
        _, pt_out, _ = run_cli(capsys, "pt", *bounds, "--term", "P(X = 0)")
        rc, out, _ = run_cli(capsys, "wpp", *bounds, "--post", "P(X = 0) >= 1/2")
        assert rc == 0
        assert out.splitlines()[1:] == pt_out.splitlines()[1:] == [
            "loop 0 (X > 0): non-exhaustive on window {X in [0, 3], _F0 in [0, 3]}, "
            "4 classes, 2 tail terms"]
        rc, out, _ = run_cli(capsys, "wpp", *bounds, "--post", "P(X = 0) >= 1/2",
                             "--format", "json")
        (loop,) = json.loads(out)["loops"]
        assert rc == 0 and loop["depth"] == 2 and len(loop["tails"]) == 3
        assert loop["sum"] == loop["tails"][0]

    @pytest.mark.parametrize("command, usage", [("pt", "--term TERM"),
                                                ("wpp", "--post POST")])
    def test_help_names_input_flag(self, capsys, command, usage):
        rc, out, _ = run_cli(capsys, command, "--help")
        assert rc == 0 and usage in out


class TestCheck:
    def test_det_triple_holds(self, capsys):
        rc, out, _ = run_cli(capsys, "check",
                             "--triple", "{ X >= 0 } X := X + 1 { X >= 1 }")
        assert rc == 0 and out.startswith("holds")

    def test_prob_triple_fails(self, capsys):
        rc, out, _ = run_cli(
            capsys, "check",
            "--triple", "{ true } X :=$ {1/2:0, 1/2:1} { P(X = 0) = 1 }")
        assert rc == 1 and out.startswith("fails")

    def test_failing_inexact_triple_names_residual(self, capsys):
        rc, out, _ = run_cli(
            capsys, "check", "--triple",
            "{ P(X >= 0) = 1 } while X > 0 do { X := X - 1 [1/2] skip } { P(X = 0) = 1 }",
            "--int-window=0..8")
        assert rc == 1 and out.startswith("fails")
        assert out.rstrip().endswith(
            "(loop truncation left residual mass up to 1/18446744073709551616; "
            "verdict is up to that residual)")

    def test_extra_family_member(self, capsys, tmp_path):
        p = tmp_path / "mu.json"
        p.write_text(json.dumps([{"state": {"X": 2}, "prob": "1"}]))
        rc, out, _ = run_cli(
            capsys, "check", "--triple", "{ P(X = 2) = 1 } skip { P(X = 2) = 1 }",
            "--dists", str(p))
        assert rc == 0 and out.startswith("holds")


class TestProve:
    def test_accepts(self, capsys, tmp_path):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(DIVERGE_DERIV))
        rc, out, _ = run_cli(capsys, "prove", "--derivation", str(p))
        assert rc == 0 and out.startswith("accepted")

    def test_rejects(self, capsys, tmp_path):
        bad = {"rule": "AS", "conclusion": "{ X = 2 } X := X + 1 { X = 2 }"}
        p = tmp_path / "d.json"
        p.write_text(json.dumps(bad))
        rc, out, _ = run_cli(capsys, "prove", "--derivation", str(p))
        assert rc == 1 and "AS precondition" in out

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "prove", "--derivation", "missing.json")
        assert rc == 2 and "error" in err

    @pytest.mark.parametrize("deriv, scope", [
        ({"rule": "CONS", "conclusion": "{ X >= 3 } X := X + 1 { X >= 1 }",
          "premises": [{"rule": "AS",
                        "conclusion": "{ X + 1 >= 1 } X := X + 1 { X >= 1 }"}]},
         "accepted on window {X in [-2, 2]}"),
        ({"rule": "SKIP", "conclusion": "{ P(X = 0) = 1 } skip { P(X = 0) = 1 }"},
         "accepted on family(seed=0, size=39) on window {X in [-2, 2]}"),
    ], ids=["det", "prob"])
    def test_int_window(self, capsys, tmp_path, deriv, scope):
        p = tmp_path / "d.json"
        p.write_text(json.dumps(deriv))
        rc, out, _ = run_cli(capsys, "prove", "--derivation", str(p),
                             "--int-window=-2..2")
        assert rc == 0 and out == scope + "\n"


class TestErrorsAndConfig:
    def test_parse_error_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "run", "--program", "X := 0.5",
                             "--state", "X=0")
        assert rc == 2 and "decimal" in err

    def test_bad_flag_exits_2(self, capsys):
        rc, _, _ = run_cli(capsys, "run", "--program", "skip",
                           "--state", "X=0", "--loop-bound", "banana")
        assert rc == 2

    def test_config_file(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loop_bound": 4}))
        monkeypatch.setenv("PHL_CONFIG", str(cfg))
        rc, out, _ = run_cli(
            capsys, "run",
            "--program", "while X = 0 do { X :=$ {1/2:0, 1/2:1} }",
            "--state", "X=0")
        assert rc == 0 and "residual mass: 1/16" in out

    def test_flag_overrides_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loop_bound": 4}))
        monkeypatch.setenv("PHL_CONFIG", str(cfg))
        rc, out, _ = run_cli(
            capsys, "run", "--loop-bound", "2",
            "--program", "while X = 0 do { X :=$ {1/2:0, 1/2:1} }",
            "--state", "X=0")
        assert rc == 0 and "residual mass: 1/4" in out

    def test_json_output_deterministic(self, capsys):
        argv = ("run", "--program", "X :=$ {1/2:0, 1/2:1}; Y := X",
                "--state", "X=9, Y=9", "--format", "json")
        a = run_cli(capsys, *argv)
        b = run_cli(capsys, *argv)
        assert a == b and a[0] == 0


class TestWindowsAndBounds:
    def test_space_separated_negative_window(self, capsys):
        rc, out, _ = run_cli(capsys, "check",
                             "--triple", "{ X >= 0 } X := X + 1 { X >= 1 }",
                             "--int-window", "-2..2", "--quant-window", "-1..1")
        assert rc == 0
        assert "X in [-2, 2]" in out and "quantifiers over [-1, 1]" in out

    @pytest.mark.parametrize("flag", ["--loop-bound", "--unroll", "--depth"])
    def test_negative_bound_flag(self, capsys, flag):
        rc, out, err = run_cli(capsys, "pt", "--program", "X := 1",
                               "--term", "P(X = 1)", flag, "-1")
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "non-negative" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("config", [
        {"int_window": 5}, {"int_window": [2, 1]}, {"quant_window": [0, 1, 2]},
        {"loop_bound": None}, {"unroll": 1.5}, {"depth": True}, {"seed": "3"},
        ["loop_bound", 4], {"format": "xml"}, {"loop-bound": 4},
    ])
    def test_malformed_config(self, capsys, tmp_path, monkeypatch, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setenv("PHL_CONFIG", str(cfg))
        rc, out, err = run_cli(capsys, "check",
                               "--triple", "{ X >= 0 } X := X + 1 { X >= 1 }")
        assert rc == 2 and out == ""
        assert err.startswith("error: PHL_CONFIG") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_negative_bound_in_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loop_bound": -1}))
        monkeypatch.setenv("PHL_CONFIG", str(cfg))
        rc, out, err = run_cli(capsys, "run", "--program", "skip", "--state", "X=0")
        assert rc == 2 and out == ""
        assert err == "error: loop_bound must be non-negative, got -1\n"


def assert_usage_error(rc, out, err):
    assert rc == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


class TestBadInputs:
    """Malformed inputs exit 2 with one error line, never a traceback or a
    wrong answer."""

    @pytest.mark.parametrize("entry", [
        {"state": [1], "prob": "1"}, {"state": {"X": [1]}, "prob": "1"},
        {"state": {"X": 0}, "prob": "1/0"}, {"state": {"X": 1.5}, "prob": "1"},
        {"state": {"X": True}, "prob": "1"}, {"state": {"x": 0}, "prob": "1"},
        {"state": {"P": 0}, "prob": "1"}, {"state": {"X=1, Y": 0}, "prob": "1"},
        {"state": {"X": 0}, "prob": "1_0/2_0"},
    ])
    def test_dists(self, capsys, tmp_path, entry):
        p = tmp_path / "mu.json"
        p.write_text(json.dumps([entry]))
        assert_usage_error(*run_cli(capsys, "run", "--program", "skip",
                                    "--dists", str(p)))

    def test_repeated_state_variable(self, capsys):
        rc, out, err = run_cli(capsys, "run", "--program", "skip",
                               "--state", "X=1, X=2")
        assert_usage_error(rc, out, err)
        assert "X is bound twice" in err

    def test_dists_with_deterministic_check(self, capsys, tmp_path):
        # the file is never opened: the flag itself is the error
        rc, out, err = run_cli(capsys, "check", "--triple",
                               "{ X >= 0 } X := X + 1 { X >= 1 }",
                               "--dists", str(tmp_path / "missing.json"))
        assert_usage_error(rc, out, err)
        assert "--dists" in err

    @pytest.mark.parametrize("command, argv", [
        ("run", ("--program", "skip")),
        ("check", ("--triple", "{ P(true) = 1 } skip { P(true) = 1 }")),
    ])
    def test_empty_dists_path(self, capsys, command, argv):
        # an empty path is a file that cannot be opened, not a missing flag
        assert_usage_error(*run_cli(capsys, command, *argv, "--dists", ""))

    @pytest.mark.parametrize("field, value", [
        ("premises", 5), ("premises", {"rule": "SKIP"}), ("premises", "AS"),
        ("side", 5), ("side", "X = 0"), ("side", [True]),
        ("rule", ["CONS"]), ("rule", None),
        ("conclusion", ["{ true } while true do { skip } { P(true) = 0 }"]),
    ])
    def test_derivation(self, capsys, tmp_path, field, value):
        p = tmp_path / "d.json"
        p.write_text(json.dumps({**DIVERGE_DERIV, field: value}))
        rc, out, err = run_cli(capsys, "prove", "--derivation", str(p))
        assert_usage_error(rc, out, err)
        assert field in err

    @pytest.mark.parametrize("given", [
        ("--state", "_F0=1"), ("--state", "X=0, _F0=1"), ("--dists", "mu.json"),
    ])
    def test_choice_flag_named_like_an_input(self, capsys, tmp_path, monkeypatch, given):
        """`[p]` tosses a generated flag; an input variable of that name
        would be overwritten."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mu.json").write_text(json.dumps(
            [{"state": {"_F0": 1}, "prob": "1"}]))
        assert_usage_error(*run_cli(capsys, "run", "--program", "skip [1/2] skip",
                                    *given))

    @pytest.mark.parametrize("argv", [
        ("run", "--program", "; ".join(["X := X + 1"] * 3000), "--state", "X=0"),
        ("wp", "--program", "; ".join(["X := X + 1"] * 3000), "--post", "X > 0"),
        ("pt", "--program", "skip", "--term", " + ".join(["P(X = 0)"] * 1200)),
    ], ids=["run-chain", "wp-chain", "pt-sum"])
    def test_nested_too_deeply(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert_usage_error(rc, out, err)
        assert "nested too deeply" in err

    @pytest.mark.skipif(resource is None, reason="needs the resource module")
    def test_out_of_memory(self):
        """The coin countdown's preterm text outgrows a 1 GiB address space."""
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        proc = subprocess.run(
            [sys.executable, "-m", "phl.cli", "pt",
             "--program", "while X > 0 do { X := X - 1 [1/2] skip }",
             "--term", "P(X = 0)", "--unroll", "16", "--depth", "8",
             "--int-window", "-4..4"],
            capture_output=True, text=True, preexec_fn=cap,
            env={**os.environ, "PHL_CONFIG": ""})
        assert_usage_error(proc.returncode, proc.stdout, proc.stderr)
        assert "out of memory" in proc.stderr


class TestInstalledScript:
    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "phl.cli", "run", "--program", "skip",
             "--state", "X=0", "--format", "json"],
            capture_output=True, text=True,
            env={**os.environ, "PHL_CONFIG": ""})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["exact"] is True


# Import the package and run two subcommands in a fresh interpreter, then
# print the exit codes and the top-level modules loaded outside the stdlib.
RUNTIME_PROBE = """
import sys
before = set(sys.modules)
import phl
from phl import cli
codes = [cli.main(["run", "--program", "X := X + 1", "--state", "X=0"]),
         cli.main(["check", "--triple",
                   "{ P(X = 0) = 1 } X :=$ {1/2:0, 1/2:1} { P(X = 0) = 1/2 }"])]
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(codes, sorted(loaded - set(sys.stdlib_module_names)))
"""

# Names that only the tests use (tests/gen.py, tests/reference.py), and
# printer names that `to_source` covers: none belongs to the package.
TEST_APPARATUS = (
    "gen", "rule_soundness_suite", "SoundnessReport", "pas_preterm_subset_sum",
    "SUBSET_SUM_LIMIT", "pt_semantic_oracle", "iterate_cmd", "arith_to_source",
    "formula_to_source", "command_to_source", "real_to_source", "prob_to_source",
)


class TestRuntime:
    def test_stdlib_only(self):
        proc = subprocess.run([sys.executable, "-c", RUNTIME_PROBE],
                              capture_output=True, text=True,
                              env={**os.environ, "PHL_CONFIG": ""})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0] ['phl']"

    def test_ships_no_test_apparatus(self):
        import phl
        assert importlib.util.find_spec("phl.gen") is None
        modules = [phl] + [importlib.import_module(f"phl.{m.name}")
                           for m in pkgutil.iter_modules(phl.__path__)]
        for module in modules:
            assert [n for n in TEST_APPARATUS if hasattr(module, n)] == [], module


# ---------------------------------------------------------------------------
# Full output: stdout and exit status of the README examples and of failing,
# inexact and rejected cases, in both formats, byte for byte.

PINNED_ARGV = {
    "run": ("run", "--program", "while X = 0 do { X :=$ {1/2:0, 1/2:1}; Y := Y + 1 }",
            "--state", "X=0, Y=0", "--loop-bound", "20"),
    "wp": ("wp", "--program", "while X = 0 do { X := 1 }", "--post", "X = 1"),
    "pt": ("pt", "--program", "while true do { skip }", "--term", "P(true)"),
    "wpp": ("wpp", "--program", "X := X + 1", "--post", "P(X = 2) <= 1/2"),
    "check": ("check", "--triple", "{ X >= 0 } X := X + 1 { X >= 1 }"),
    "prove": ("prove", "--derivation", "accept.json"),
    "check-det-fails": ("check", "--triple", "{ X >= 0 } X := X - 1 { X >= 0 }"),
    "check-prob-fails": ("check", "--triple",
                         "{ true } X :=$ {1/2:0, 1/2:1} { P(X = 0) = 1 }"),
    "check-inexact": ("check", "--triple",
                      "{ P(X >= 0) = 1 } while X > 0 do { X := X - 1 [1/2] skip } "
                      "{ P(X = 0) = 1 }", "--int-window=0..8"),
    "prove-rejects": ("prove", "--derivation", "reject.json"),
    "run-dists": ("run", "--program", "X := X * 2", "--dists", "mu.json"),
}
PINNED_FILES = {
    "accept.json": DIVERGE_DERIV,
    "reject.json": {"rule": "AS", "conclusion": "{ X = 2 } X := X + 1 { X = 2 }"},
    "mu.json": [{"state": {"X": 0}, "prob": "1/2"}, {"state": {"X": 3}, "prob": "1/2"}],
}
PINNED = {
    ("run", "text"): (0, """\
  1/2  {X=1, Y=1}
  1/4  {X=1, Y=2}
  1/8  {X=1, Y=3}
  1/16  {X=1, Y=4}
  1/32  {X=1, Y=5}
  1/64  {X=1, Y=6}
  1/128  {X=1, Y=7}
  1/256  {X=1, Y=8}
  1/512  {X=1, Y=9}
  1/1024  {X=1, Y=10}
  1/2048  {X=1, Y=11}
  1/4096  {X=1, Y=12}
  1/8192  {X=1, Y=13}
  1/16384  {X=1, Y=14}
  1/32768  {X=1, Y=15}
  1/65536  {X=1, Y=16}
  1/131072  {X=1, Y=17}
  1/262144  {X=1, Y=18}
  1/524288  {X=1, Y=19}
  1/1048576  {X=1, Y=20}
residual mass: 1/1048576
iterations used: 20
exact: False
"""),
    ("run", "json"): (0,
        '{"exact": false, "iterations": 20, "residual": "1/1048576", "states": '
        '[{"prob": "1/2", "vars": {"X": 1, "Y": 1}}, {"prob": "1/4", "vars": {"X": 1, '
        '"Y": 2}}, {"prob": "1/8", "vars": {"X": 1, "Y": 3}}, {"prob": "1/16", '
        '"vars": {"X": 1, "Y": 4}}, {"prob": "1/32", "vars": {"X": 1, "Y": 5}}, '
        '{"prob": "1/64", "vars": {"X": 1, "Y": 6}}, {"prob": "1/128", "vars": {"X": '
        '1, "Y": 7}}, {"prob": "1/256", "vars": {"X": 1, "Y": 8}}, {"prob": "1/512", '
        '"vars": {"X": 1, "Y": 9}}, {"prob": "1/1024", "vars": {"X": 1, "Y": 10}}, '
        '{"prob": "1/2048", "vars": {"X": 1, "Y": 11}}, {"prob": "1/4096", "vars": '
        '{"X": 1, "Y": 12}}, {"prob": "1/8192", "vars": {"X": 1, "Y": 13}}, {"prob": '
        '"1/16384", "vars": {"X": 1, "Y": 14}}, {"prob": "1/32768", "vars": {"X": 1, '
        '"Y": 15}}, {"prob": "1/65536", "vars": {"X": 1, "Y": 16}}, {"prob": '
        '"1/131072", "vars": {"X": 1, "Y": 17}}, {"prob": "1/262144", "vars": {"X": '
        '1, "Y": 18}}, {"prob": "1/524288", "vars": {"X": 1, "Y": 19}}, {"prob": '
        '"1/1048576", "vars": {"X": 1, "Y": 20}}]}\n'),
    ("wp", "text"): (0, """\
X = 0 || !(X = 0) && (X = 1)
loop 0 (X = 0): converged at 2, 3 approximants
"""),
    ("wp", "json"): (0,
        '{"loops": [{"approximants": ["true", "X = 0 || !(X = 0) && (X = 1)", "X = 0 '
        '|| !(X = 0) && (X = 1)"], "converged": true, "fixpoint_index": 2}], "wp": "X '
        '= 0 || !(X = 0) && (X = 1)"}\n'),
    ("pt", "text"): (0, """\
0
loop 0 (true): non-exhaustive on window {}, 32 classes, 16 tail terms
"""),
    ("pt", "json"): (0,
        '{"loops": [{"depth": 16, "exhaustive": false, "sum": "0", "tails": ["0", '
        '"0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", '
        '"0"], "unroll": 32}], "preterm": "0"}\n'),
    ("wpp", "text"): (0, 'P(X + 1 = 2) <= 1/2\n'),
    ("wpp", "json"): (0, '{"loops": [], "wp": "P(X + 1 = 2) <= 1/2"}\n'),
    ("check", "text"): (0,
        'holds on window {X in [-8, 8]}, quantifiers over [-8, 8], loop bound 64\n'),
    ("check", "json"): (0,
        '{"counterexample": null, "holds": true, "inexact": false, "residual": "0", '
        '"scope": "window {X in [-8, 8]}, quantifiers over [-8, 8], loop bound 64"}\n'),
    ("prove", "text"): (0, 'accepted on family(seed=0, size=35) on window {}\n'),
    ("prove", "json"): (0,
        '{"accepted": true, "failures": [], "scope": "family(seed=0, size=35) on '
        'window {}"}\n'),
    ("check-det-fails", "text"): (1,
        'fails on window {X in [-8, 8]}, quantifiers over [-8, 8], loop bound 64: '
        'counterexample {X=0} under []\n'),
    ("check-det-fails", "json"): (1,
        '{"counterexample": {"interpretation": {"log": {}, "real": {}}, "state": '
        '{"X": 0}}, "holds": false, "inexact": false, "residual": "0", "scope": '
        '"window {X in [-8, 8]}, quantifiers over [-8, 8], loop bound 64"}\n'),
    ("check-prob-fails", "text"): (1,
        'fails on family(seed=0, size=51) on window {X in [-8, 8]}, quantifiers over '
        '[-8, 8], loop bound 64: counterexample point{X=-8} under []\n'),
    ("check-prob-fails", "json"): (1,
        '{"counterexample": {"interpretation": {"log": {}, "real": {}}, "member": '
        '"point{X=-8}"}, "holds": false, "inexact": false, "residual": "0", "scope": '
        '"family(seed=0, size=51) on window {X in [-8, 8]}, quantifiers over [-8, 8], '
        'loop bound 64"}\n'),
    ("check-inexact", "text"): (1,
        'fails on family(seed=0, size=115) on window {X in [0, 8], _F0 in [0, 8]}, '
        'quantifiers over [-8, 8], loop bound 64: counterexample point{X=1, _F0=0} '
        'under [] (loop truncation left residual mass up to 1/18446744073709551616; '
        'verdict is up to that residual)\n'),
    ("check-inexact", "json"): (1,
        '{"counterexample": {"interpretation": {"log": {}, "real": {}}, "member": '
        '"point{X=1, _F0=0}"}, "holds": false, "inexact": true, "residual": '
        '"1/18446744073709551616", "scope": "family(seed=0, size=115) on window {X in '
        '[0, 8], _F0 in [0, 8]}, quantifiers over [-8, 8], loop bound 64"}\n'),
    ("prove-rejects", "text"): (1, """\
rejected:
  root: AS precondition must be X + 1 = 2
"""),
    ("prove-rejects", "json"): (1,
        '{"accepted": false, "failures": ["root: AS precondition must be X + 1 = 2"], '
        '"scope": "window {X in [-8, 8]}"}\n'),
    ("run-dists", "text"): (0, """\
  1/2  {X=0}
  1/2  {X=6}
residual mass: 0
iterations used: 0
exact: True
"""),
    ("run-dists", "json"): (0,
        '{"exact": true, "iterations": 0, "residual": "0", "states": [{"prob": "1/2", '
        '"vars": {"X": 0}}, {"prob": "1/2", "vars": {"X": 6}}]}\n'),
}



@pytest.mark.parametrize("case, fmt", list(PINNED), ids="-".join)
def test_pinned_output(capsys, tmp_path, monkeypatch, case, fmt):
    """Exit status and stdout byte for byte, and nothing on stderr.  CI runs
    this test under two PYTHONHASHSEED values: the output must not depend on
    the string hash seed."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PHL_CONFIG", raising=False)
    for name, data in PINNED_FILES.items():
        (tmp_path / name).write_text(json.dumps(data))
    rc, out, err = run_cli(capsys, *PINNED_ARGV[case], "--format", fmt)
    assert (rc, out, err) == (*PINNED[case, fmt], "")
