import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from balanced.cli import check, main
from balanced.constructors import SrgParams
from balanced.designs import TheoremOneVerdict
from balanced.exact import GramMatrix, InvariantError, Scaled, StructuralError
from balanced.files import (
    InputError,
    read_configuration,
    read_graph,
    write_configuration,
    write_json,
)
from balanced.lattice import bundled_lattice, short_vectors
from balanced.numerics import AmbiguousShellError
from balanced.symmetry import ColoredGraph, PermutationGroup, automorphism_group
from conftest import gram_entries, perturbed_square
from test_numerics import CONSTRUCTED

import balanced


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestConstructRoundTrip:
    def test_simplex_midpoints_to_report(self, runner, tmp_path):
        out = tmp_path / "c7.json"
        res = invoke(runner, ["construct", "simplex-midpoints", "7", "-o", str(out)])
        assert res.exit_code == 0
        res = invoke(runner, ["report", str(out), "--cap", "3"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["n_points"] == 28
        assert doc["balanced"] is True
        assert doc["symmetry_order"] == "40320"

    def test_written_file_reparses_identically(self, runner, tmp_path):
        out = tmp_path / "c7p.json"
        invoke(runner, ["construct", "c7prime", "-o", str(out)])
        c = read_configuration(out)
        again = tmp_path / "again.json"
        write_configuration(c, again)
        assert out.read_text() == again.read_text()
        assert gram_entries(read_configuration(again).gram) == gram_entries(c.gram)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTED))
    def test_constructor_outputs_read_back_equal(self, tmp_path, name):
        """Every configuration the library builds, kissing ones included,
        passes the reader's checks: the label rules are one rule."""
        c = CONSTRUCTED[name]()
        write_configuration(c, tmp_path / "c.json")
        assert read_configuration(tmp_path / "c.json") == c

    def test_determinism(self, runner, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            invoke(runner, ["construct", "srg-embedding", "figure1", "-o", str(path)])
        assert a.read_bytes() == b.read_bytes()
        ra = invoke(runner, ["report", str(a), "--cap", "2"]).output
        rb = invoke(runner, ["report", str(b), "--cap", "2"]).output
        assert ra == rb

    def test_polytopes(self, runner, tmp_path):
        for args, n in (
            (["polytope", "cube"], 8),
            (["polytope", "cross-polytope", "-n", "4"], 8),
            (["polytope", "simplex", "-n", "3"], 4),
        ):
            out = tmp_path / "p.json"
            res = invoke(runner, ["construct", *args, "-o", str(out)])
            assert res.exit_code == 0
            assert len(json.loads(out.read_text())["gram"]) == n

    def test_poles_ring_float_file(self, runner, tmp_path):
        out = tmp_path / "pr.json"
        invoke(runner, ["construct", "polytope", "poles-and-ring", "-k", "5", "-o", str(out)])
        doc = json.loads(out.read_text())
        assert "coords" in doc and len(doc["coords"]) == 7
        res = invoke(runner, ["check", "balanced", str(out)])
        assert res.exit_code == 0
        res = invoke(runner, ["check", "theorem1", str(out), "--cap", "3"])
        assert res.exit_code == 1  # balanced, but the sufficient condition fails

    def test_antipodal_union(self, runner, tmp_path):
        c7 = tmp_path / "c7.json"
        out = tmp_path / "c56.json"
        invoke(runner, ["construct", "simplex-midpoints", "7", "-o", str(c7)])
        res = invoke(runner, ["construct", "antipodal-union", str(c7), "-o", str(out)])
        assert res.exit_code == 0
        assert len(json.loads(out.read_text())["gram"]) == 56

    def test_srg_complement(self, runner, tmp_path):
        out = tmp_path / "comp.json"
        res = invoke(
            runner,
            ["construct", "srg-embedding", "figure1", "--complement", "-o", str(out)],
        )
        assert res.exit_code == 0
        res = invoke(runner, ["report", str(out), "--cap", "2"])
        assert json.loads(res.output)["symmetry_order"] == "1"

    def test_graph_file_input(self, runner, tmp_path):
        graph = tmp_path / "square.txt"
        graph.write_text("0 1 0 1\n1 0 1 0\n0 1 0 1\n1 0 1 0\n")
        adj = read_graph(graph)
        assert len(adj) == 4
        out = tmp_path / "sq.json"
        res = invoke(runner, ["construct", "srg-embedding", str(graph), "-o", str(out)])
        assert res.exit_code == 2  # K_{2,2} is degenerate

    @pytest.mark.parametrize("complement", [[], ["--complement"]], ids=["graph", "complement"])
    @pytest.mark.parametrize("text, message", [
        ("0 1 1\n1 0 2\n1 2 0\n", "adjacency entry [1][2] = 2 not 0/1"),
        ("0 1 1\n1 0\n1 1 0\n", "adjacency row 1 has length 2"),
    ], ids=["two", "short-row"])
    def test_graph_file_rules_are_the_adjacency_rules(self, runner, tmp_path, text, message,
                                                      complement):
        graph = tmp_path / "bad.txt"
        graph.write_text(text)
        res = invoke(runner, ["construct", "srg-embedding", str(graph), *complement])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {message}\n"

    def test_graph_file_keeps_its_parse_error(self, runner, tmp_path):
        graph = tmp_path / "bad.txt"
        graph.write_text("0 1\n1 x\n")
        res = invoke(runner, ["construct", "srg-embedding", str(graph)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {graph}: line 2: entries must be 0/1 integers\n"

    @pytest.mark.parametrize("args, message", [
        (["cube", "-n", "7", "-k", "2"], "cube takes no dimension (-n)"),
        (["cube", "-n", "7"], "cube takes no dimension (-n)"),
        (["cube", "-k", "2"], "cube takes no ring size (-k)"),
        (["cross-polytope", "-n", "3", "-k", "2"], "cross-polytope takes no ring size (-k)"),
        (["simplex", "-n", "3", "-k", "2"], "simplex takes no ring size (-k)"),
        (["poles-and-ring", "-k", "5", "-n", "3"], "poles-and-ring takes no dimension (-n)"),
        (["poles_ring", "-k", "5", "-n", "3"], "poles-and-ring takes no dimension (-n)"),
    ])
    def test_polytope_refuses_options_it_does_not_take(self, runner, tmp_path, args, message):
        out = tmp_path / "p.json"
        res = invoke(runner, ["construct", "polytope", *args, "-o", str(out)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {message}\n"
        assert not out.exists()

    def test_srg_rank_defect_exits_4(self, runner, monkeypatch):
        multiplicity = SrgParams.multiplicity
        monkeypatch.setattr(SrgParams, "multiplicity", lambda p, eig: multiplicity(p, eig) + 1)
        res = invoke(runner, ["construct", "srg-embedding", "figure1"])
        assert res.exit_code == 4
        assert res.stdout == ""
        assert res.stderr == ("error: internal invariant violated: "
                              "embedding rank 12 != multiplicity 13\n")


class TestExitCodes:
    def test_balanced_pass(self, runner, tmp_path):
        out = tmp_path / "cube.json"
        invoke(runner, ["construct", "polytope", "cube", "-o", str(out)])
        assert invoke(runner, ["check", "balanced", str(out)]).exit_code == 0

    def test_balanced_fail(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        write_configuration(perturbed_square(), bad)
        res = invoke(runner, ["check", "balanced", str(bad)])
        assert res.exit_code == 1
        assert json.loads(res.output)["violations"]

    def test_single_point_balanced(self, runner, tmp_path):
        f = tmp_path / "one.json"
        write_json({"gram": [["1"]]}, f)
        assert invoke(runner, ["check", "balanced", str(f)]).exit_code == 0

    def test_malformed_json(self, runner, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{not json")
        res = invoke(runner, ["check", "balanced", str(f)])
        assert res.exit_code == 2
        assert "line" in res.output or "line" in (res.stderr or "")

    def test_asymmetric_rejected(self, runner, tmp_path):
        f = tmp_path / "asym.json"
        write_json({"gram": [["1", "1/2"], ["1/3", "1"]]}, f)
        assert invoke(runner, ["check", "balanced", str(f)]).exit_code == 2

    def test_non_unit_diagonal_rejected(self, runner, tmp_path):
        f = tmp_path / "diag.json"
        write_json({"gram": [["2", "0"], ["0", "2"]]}, f)
        assert invoke(runner, ["check", "balanced", str(f)]).exit_code == 2

    def test_float_entries_rejected(self, runner, tmp_path):
        f = tmp_path / "float.json"
        f.write_text(json.dumps({"gram": [[1, 0.5], [0.5, 1]]}))
        assert invoke(runner, ["check", "balanced", str(f)]).exit_code == 2

    def test_float_zero_vector_rejected(self, runner, tmp_path):
        f = tmp_path / "zero.json"
        f.write_text('{"coords": [[0, 0, 0], [1, 0, 0]]}')
        for command in (["check", "balanced"], ["report"], ["energy", "-s", "1"]):
            res = invoke(runner, [*command, str(f)])
            assert res.exit_code == 2
            assert res.stdout == ""

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_float_non_finite_rejected(self, runner, tmp_path, value):
        f = tmp_path / "nonfinite.json"
        f.write_text(f'{{"coords": [[{value}, 0, 1], [1, 0, 0], [0, 1, 0]]}}')
        for command in (["check", "balanced"], ["report"], ["force", "-s", "1"]):
            res = invoke(runner, [*command, str(f)])
            assert res.exit_code == 2
            assert res.stdout == ""

    def test_threads_flag_removed(self, runner, tmp_path):
        f = tmp_path / "one.json"
        write_json({"gram": [["1"]]}, f)
        res = invoke(runner, ["--threads", "2", "report", str(f)])
        assert res.exit_code == 2
        assert "No such option" in res.output

    def test_failed_invariant_exits_4(self, runner, tmp_path, monkeypatch):
        # a sufficient condition claiming an unbalanced configuration balanced
        f = tmp_path / "bad.json"
        write_configuration(perturbed_square(), f)
        monkeypatch.setattr(
            "balanced.designs.theorem1_check",
            lambda c, cap: TheoremOneVerdict(
                per_point_k=(1,) * c.size, strength=1, applies=True
            ),
        )
        res = invoke(runner, ["report", str(f)])
        assert res.exit_code == 4
        assert res.stdout == ""
        assert "internal invariant violated" in res.stderr

    @pytest.mark.parametrize("group", [main, check], ids=["main", "check"])
    @pytest.mark.parametrize("error, code, line", [
        (InputError("bad file"), 2, "error: bad file"),
        (StructuralError("not symmetric"), 2, "error: not symmetric"),
        (AmbiguousShellError("ambiguous shells"), 2, "error: ambiguous shells"),
        (InvariantError("broken"), 4, "error: internal invariant violated: broken"),
    ], ids=["input", "structural", "ambiguous", "invariant"])
    def test_every_command_maps_library_errors(self, runner, group, error, code, line):
        """The mapping sits on the top group, so a command added later, at
        any depth, needs nothing of its own to get its exit code."""

        @group.command("raise-for-test")
        def raise_for_test():
            raise error

        argv = ["raise-for-test"] if group is main else ["check", "raise-for-test"]
        try:
            res = invoke(runner, argv)
        finally:
            del group.commands["raise-for-test"]
        assert res.exit_code == code
        assert res.stdout == ""
        assert res.stderr == line + "\n"

    def test_missing_file(self, runner):
        assert invoke(runner, ["check", "balanced", "/nonexistent.json"]).exit_code == 2

    def test_leech_needs_allow_slow(self, runner):
        res = invoke(runner, ["construct", "kissing", "leech"])
        assert res.exit_code == 3

    def test_a_bundled_name_is_gated_before_any_matrix_is_built(self, runner, monkeypatch):
        def refuse(*args):
            raise AssertionError("built")

        monkeypatch.setattr(balanced.exact, "_bareiss", refuse)
        monkeypatch.setattr(balanced.files, "bundled_lattice", refuse)
        res = invoke(runner, ["construct", "kissing", "z1500"])
        assert res.exit_code == 3
        assert res.stderr == ("error: lattice dimension 1500 >= 16: enumeration is slow; "
                              "pass --allow-slow\n")

    def test_a_path_that_exists_wins_over_a_bundled_name(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_json({"label": "A1", "gram": [[2]]}, tmp_path / "z1500")
        res = invoke(runner, ["construct", "kissing", "z1500"])
        assert res.exit_code == 0
        assert json.loads(res.stdout)["labels"] == ["-1", "1"]

    def test_group_balanced_codes(self, runner, tmp_path):
        cube_f = tmp_path / "cube.json"
        invoke(runner, ["construct", "polytope", "cube", "-o", str(cube_f)])
        assert invoke(runner, ["check", "group-balanced", str(cube_f)]).exit_code == 0
        c7p = tmp_path / "c7p.json"
        invoke(runner, ["construct", "c7prime", "-o", str(c7p)])
        res = invoke(runner, ["check", "group-balanced", str(c7p)])
        assert res.exit_code == 1
        assert len(json.loads(res.output)["witnesses"]) == 24


class TestEuclideanCommand:
    def test_z2(self, runner, tmp_path):
        f = tmp_path / "z2.json"
        write_json(
            {"points": [["0", "0"]], "period": [["1", "0"], ["0", "1"]], "cutoff": "3"},
            f,
        )
        assert invoke(runner, ["check", "euclidean", str(f)]).exit_code == 0

    def test_two_points(self, runner, tmp_path):
        f = tmp_path / "two.json"
        write_json({"points": [["0"], ["1"]]}, f)
        assert invoke(runner, ["check", "euclidean", str(f)]).exit_code == 1

    def test_bad_cutoff(self, runner, tmp_path):
        f = tmp_path / "small.json"
        write_json(
            {"points": [["0", "0"]], "period": [["1", "0"], ["0", "1"]], "cutoff": "1/2"},
            f,
        )
        assert invoke(runner, ["check", "euclidean", str(f)]).exit_code == 2

    @pytest.mark.parametrize("period, message", [
        ([], "period basis is empty"),
        ([["1", "0"], ["2", "0"]], "period basis is not linearly independent"),
        ([["0", "0"], ["0", "1"]], "period basis is not linearly independent"),
        ([["1", "0"], ["0", "1"], ["1", "1"]], "period basis is not linearly independent"),
        ([["1", "0"], ["0"]], "period basis dimension does not match points"),
    ], ids=["empty", "dependent", "zero", "too-many", "ragged"])
    def test_bad_period_is_named(self, runner, tmp_path, period, message):
        f = tmp_path / "period.json"
        write_json({"points": [["0", "0"]], "period": period, "cutoff": "2"}, f)
        res = invoke(runner, ["check", "euclidean", str(f)])
        assert res.exit_code == 2
        assert res.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("doc", [
        {"points": [["0"], ["1"], ["-1"]], "cutoff": "-1"},
        {"points": [["0", "0"]], "period": [["1", "0"], ["0", "1"]], "cutoff": "-3"},
    ], ids=["finite", "periodic"])
    def test_negative_cutoff(self, runner, tmp_path, doc):
        """A cutoff radius below zero is malformed, not its absolute value."""
        f = tmp_path / "negative.json"
        write_json(doc, f)
        res = invoke(runner, ["check", "euclidean", str(f)])
        assert res.exit_code == 2
        assert f"cutoff radius {doc['cutoff']} is negative" in res.stderr


class TestAnalysisCommands:
    def test_kissing_d4_and_checks(self, runner, tmp_path):
        out = tmp_path / "d4.json"
        res = invoke(runner, ["construct", "kissing", "d4", "-o", str(out)])
        assert res.exit_code == 0
        res = invoke(runner, ["check", "design", str(out), "--cap", "5"])
        assert json.loads(res.output)["strength"] == 5
        res = invoke(runner, ["check", "theorem1", str(out), "--cap", "5"])
        assert res.exit_code == 0

    def test_symmetry_stabilizer(self, runner, tmp_path):
        f = tmp_path / "c7p.json"
        invoke(runner, ["construct", "c7prime", "-o", str(f)])
        res = invoke(runner, ["symmetry", str(f), "--orbits", "--stabilizer", "5"])
        doc = json.loads(res.output)
        assert doc["order"] == "384"
        assert sorted(len(o) for o in doc["orbits"]) == [4, 24]
        assert doc["stabilizer"]["order"] == "16"
        assert doc["stabilizer"]["fixed_subspace_dim"] == 2

    @pytest.mark.parametrize("point", ["28", "-1"])
    def test_symmetry_stabilizer_out_of_range_exits_2(self, runner, tmp_path, point):
        f = tmp_path / "c7p.json"
        invoke(runner, ["construct", "c7prime", "-o", str(f)])
        res = invoke(runner, ["symmetry", str(f), "--stabilizer", point])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"point index {point} out of range" in res.stderr
        assert "Traceback" not in res.stderr

    def test_energy_force_saddle(self, runner, tmp_path):
        f = tmp_path / "cube.json"
        invoke(runner, ["construct", "polytope", "cube", "-o", str(f)])
        res = invoke(runner, ["energy", str(f), "-s", "1"])
        assert res.exit_code == 0
        assert json.loads(res.output)["energy"] > 0
        res = invoke(runner, ["force", str(f), "-s", "3"])
        assert json.loads(res.output)["max_tangential_norm"] < 1e-10
        res = invoke(runner, ["saddle-demo", "-s", "1"])
        doc = json.loads(res.output)
        assert doc["drops_below_start"] is True
        assert abs(doc["slope_at_0"]) < 1e-6

    def test_report_c7p(self, runner, tmp_path):
        f = tmp_path / "c7p.json"
        invoke(runner, ["construct", "c7prime", "-o", str(f)])
        res = invoke(runner, ["report", str(f), "--cap", "3"])
        doc = json.loads(res.output)
        assert doc["balanced"] is True
        assert doc["group_balanced"] is False
        assert doc["symmetry_order"] == "384"
        assert sorted(doc["orbit_sizes"]) == [4, 24]

    def test_report_float_mode(self, runner, tmp_path):
        f = tmp_path / "pr.json"
        invoke(runner, ["construct", "polytope", "poles-and-ring", "-k", "5", "-o", str(f)])
        doc = json.loads(invoke(runner, ["report", str(f), "--cap", "3"]).output)
        assert doc["mode"] == "float"
        assert doc["balanced"] is True
        assert doc["theorem1_applies"] is False
        assert doc["design_strength"] == 1
        assert doc["symmetry_order"] is None


class TestOptimizedInterpreter:
    """`python -O` strips asserts; verdicts must not depend on them."""

    @pytest.mark.parametrize(
        "construct", [["c7prime"], ["srg-embedding", "figure1", "--eigen", "r"]]
    )
    def test_report_identical_under_dash_o(self, runner, tmp_path, construct):
        f = tmp_path / "config.json"
        assert invoke(runner, ["construct", *construct, "-o", str(f)]).exit_code == 0
        src = str(Path(balanced.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "balanced.cli", "report", str(f)],
                capture_output=True,
                env=env,
                timeout=120,
            )
            for flags in ([], ["-O"])
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert runs[0].stdout
        assert runs[1].stdout == runs[0].stdout


class TestHashSeed:
    """The search's sibling keys use fixed weights, so no hash seed can
    change a printed generator."""

    def test_symmetry_identical_under_two_hash_seeds(self, paulus_r, tmp_path):
        f = tmp_path / "paulus_r.json"
        write_configuration(paulus_r, f)
        src = str(Path(balanced.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        runs = [
            subprocess.run(
                [sys.executable, "-m", "balanced.cli", "symmetry", str(f),
                 "--orbits", "--stabilizer", "3"],
                capture_output=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                timeout=120,
            )
            for seed in ("0", "1")
        ]
        for run in runs:
            assert run.returncode == 0, run.stderr
        assert json.loads(runs[0].stdout)["stabilizer"]["point"] == 3
        assert runs[1].stdout == runs[0].stdout


class TestDenominatorPastInt64:
    """The common denominator of these entries lies in [2^63, 2^64).  The
    three points are not balanced, so `check balanced` answers 1."""

    @pytest.mark.parametrize("command, code", [(["report"], 0), (["check", "balanced"], 1)])
    def test_verdict(self, runner, tmp_path, command, code):
        f = tmp_path / "wide.json"
        a, b = "1/50695", "1/296841182339356"
        write_json({"gram": [["1", "0", a], ["0", "1", b], [a, b, "1"]]}, f)
        res = invoke(runner, command + [str(f)])
        assert res.exit_code == code
        assert json.loads(res.output)["balanced"] is False


class TestMalformedNumbers:
    """Every reader answers exit 2, never a traceback or a verdict, when a
    'gram' field is not a list of rows or holds a JSON boolean."""

    @pytest.mark.parametrize("gram", [[1, 2], "abc", [[2, 1], 3]])
    def test_lattice_gram_not_rows(self, runner, tmp_path, gram):
        f = tmp_path / "lattice.json"
        write_json({"gram": gram}, f)
        res = invoke(runner, ["construct", "kissing", str(f)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "must be a list of rows" in res.stderr

    @pytest.mark.parametrize("gram", [[[True]], [[2, True], [True, 2]], [[]], []])
    def test_lattice_rejects_booleans_and_empty(self, runner, tmp_path, gram):
        f = tmp_path / "lattice.json"
        write_json({"gram": gram}, f)
        res = invoke(runner, ["construct", "kissing", str(f)])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "gram", [[[True]], [[1, True], [True, 1]], [["1", False], [False, "1"]]]
    )
    def test_exact_gram_rejects_booleans(self, runner, tmp_path, gram):
        f = tmp_path / "gram.json"
        write_json({"gram": gram}, f)
        for command in (["check", "balanced"], ["report"]):
            res = invoke(runner, [*command, str(f)])
            assert res.exit_code == 2
            assert res.stdout == ""
            assert "gram[0][" in res.stderr

    @pytest.mark.parametrize("doc, field", [
        ({"points": ["00", "10", "01", "11"], "cutoff": "1"}, "points"),
        ({"points": [["0", "0"]], "period": ["10", "01"], "cutoff": "1"}, "period"),
        ({"points": 5}, "points"),
        ({"points": [["0", "0"]], "period": 5, "cutoff": "1"}, "period"),
    ], ids=["string-points", "string-period", "number-points", "number-period"])
    def test_euclidean_rows_are_lists(self, runner, tmp_path, doc, field):
        """A string row is not read character by character into a verdict."""
        f = tmp_path / "points.json"
        write_json(doc, f)
        res = invoke(runner, ["check", "euclidean", str(f)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: {f}: '{field}' must be a list of rows\n"

    def test_euclidean_rejects_booleans(self, runner, tmp_path):
        f = tmp_path / "points.json"
        write_json({"points": [[0, 0], [1, True]]}, f)
        res = invoke(runner, ["check", "euclidean", str(f)])
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_first_bad_entry_is_named(self, runner, tmp_path):
        f = tmp_path / "gram.json"
        write_json({"gram": [["1", "x"], ["x", 0.5]]}, f)
        res = invoke(runner, ["check", "balanced", str(f)])
        assert res.exit_code == 2
        assert "gram[0][1]: not a rational: 'x'" in res.stderr


class TestNonFiniteOptions:
    """A tolerance or exponent must be positive and finite: NaN compares false
    with everything, so it would let every shell pass; every float command
    answers exit 2 instead of a verdict."""

    BAD = ["nan", "inf", "0", "-1"]

    @pytest.fixture()
    def unbalanced(self, tmp_path):
        f = tmp_path / "unb.json"
        f.write_text('{"coords": [[1, 0, 0], [0, 1, 0], [0.6, 0, 0.8]]}')
        return str(f)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize(
        "command",
        [["check", "balanced"], ["check", "design"], ["check", "theorem1"], ["report"]],
    )
    def test_tolerance(self, runner, unbalanced, command, value):
        res = invoke(runner, [*command, unbalanced, "--tol", value])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "tolerance must be positive and finite" in res.stderr

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("command", [["energy"], ["force"]])
    def test_exponent(self, runner, unbalanced, command, value):
        res = invoke(runner, [*command, unbalanced, "-s", value])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "exponent s must be positive and finite" in res.stderr

    @pytest.mark.parametrize("value", BAD)
    def test_saddle_demo_exponent(self, runner, value):
        res = invoke(runner, ["saddle-demo", "-s", value])
        assert res.exit_code == 2
        assert res.stdout == ""

    @pytest.fixture()
    def exact_cube(self, tmp_path, cube_config):
        f = tmp_path / "cube.json"
        write_configuration(cube_config, f)
        return str(f)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize(
        "command",
        [["check", "balanced"], ["check", "design"], ["check", "theorem1"], ["report"]],
    )
    def test_tolerance_in_exact_mode(self, runner, exact_cube, command, value):
        """Exact mode does not use --tol, but it rejects the same values."""
        res = invoke(runner, [*command, exact_cube, "--tol", value])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: tolerance must be positive and finite, got {float(value)}\n"

    def test_bad_file_is_reported_before_the_tolerance(self, runner, tmp_path):
        missing = str(tmp_path / "missing.json")
        res = invoke(runner, ["check", "balanced", missing, "--tol", "nan"])
        assert res.exit_code == 2
        assert "tolerance" not in res.stderr and "missing.json" in res.stderr

    def test_valid_tolerance_still_answers(self, runner, unbalanced):
        res = invoke(runner, ["check", "balanced", unbalanced, "--tol", "1e-9"])
        assert res.exit_code == 1
        assert json.loads(res.output)["balanced"] is False

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_saddle_demo_needs_a_sample(self, runner, samples):
        res = invoke(runner, ["saddle-demo", "--samples", samples])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "--samples" in res.stderr

    def test_saddle_demo_one_sample(self, runner):
        res = invoke(runner, ["saddle-demo", "--samples", "1"])
        assert res.exit_code == 0
        doc = json.loads(res.output)
        assert doc["best_energy"] == doc["energy_at_pi_4"] < doc["energy_at_0"]


def test_single_float_point_is_balanced(runner, tmp_path):
    """One point has no shells: balanced, as in exact mode, and no traceback."""
    f = tmp_path / "one.json"
    f.write_text('{"coords": [[0.6, 0, 0.8]]}')
    res = invoke(runner, ["check", "balanced", str(f)])
    assert res.exit_code == 0
    assert json.loads(res.output)["balanced"] is True
    res = invoke(runner, ["report", str(f), "--cap", "3"])
    assert res.exit_code == 0
    assert json.loads(res.output)["spectrum"] == []


@pytest.mark.parametrize(
    "coords, problem",
    [
        ("[[0, 0], [1, 0]]", "coords[0] is the zero vector"),
        ("[[1, 0], [0, 0], [NaN, 1]]", "coords[1] is the zero vector"),
        ("[[1, 0], [NaN, 1], [0, 0]]", "coords[1] is not finite"),
        ("[[1, 0], [0, 1], [1, -Infinity]]", "coords[2] is not finite"),
        ("[[]]", "coords[0] is the zero vector"),
        ("[[true, false], [false, true]]", "coords[0][0] is not a number"),
        ('[[1, 0], [0, "1e0"]]', "coords[1][1] is not a number"),
        ('[[1, 0], ["a", "b"]]', "coords[1][0] is not a number"),
        ("[[1, 0], [0, 1], [1, null]]", "coords[2][1] is not a number"),
        pytest.param(f"[[1{'0' * 400}, 0], [0, 1]]",
                     "bad 'coords' array: int too large to convert to float", id="huge-int"),
    ],
)
def test_coordinate_checks_name_the_first_bad_point(runner, tmp_path, coords, problem):
    f = tmp_path / "bad.json"
    f.write_text(f'{{"coords": {coords}}}')
    res = invoke(runner, ["check", "balanced", str(f)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {f}: {problem}\n"


@pytest.mark.parametrize("label", [7, True, ["C7"], {"name": "C7"}])
@pytest.mark.parametrize("command, doc", [
    (["report"], {"gram": [["1", "0"], ["0", "1"]]}),
    (["report"], {"coords": [[1, 0], [0, 1]]}),
    (["construct", "antipodal-union"], {"gram": [["1", "0"], ["0", "1"]]}),
    (["construct", "kissing"], {"gram": [["2", "1"], ["1", "2"]]}),
], ids=["gram", "coords", "antipodal-union", "lattice"])
def test_a_label_that_is_not_a_string_exits_2(runner, tmp_path, command, doc, label):
    f = tmp_path / "labelled.json"
    f.write_text(json.dumps({"label": label, **doc}))
    res = invoke(runner, [*command, str(f)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {f}: 'label' must be a string\n"


TWICE = [[1, 0], [0, 1], [1, 0], [-1, 0], [0, -1]]  # points 0 and 2 coincide


@pytest.mark.parametrize(
    "command", [["check", "balanced"], ["check", "design"], ["check", "theorem1"], ["report"]])
def test_coincident_float_points_exit_2_like_their_gram_twin(runner, tmp_path, command):
    coords = tmp_path / "coords.json"
    coords.write_text(json.dumps({"coords": TWICE}))
    res = invoke(runner, [*command, str(coords)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == "error: points 0 and 2 coincide (inner product >= 1 - 1e-09)\n"
    gram = tmp_path / "gram.json"
    gram.write_text(json.dumps({"gram": [[str(sum(a * b for a, b in zip(x, y))) for y in TWICE]
                                         for x in TWICE]}))
    res = invoke(runner, [*command, str(gram)])
    assert res.exit_code == 2
    assert res.stderr == f"error: {gram}: points 0 and 2 coincide (inner product 1)\n"


def test_points_closer_than_tol_coincide(runner, tmp_path):
    """Two unit vectors at inner product cos(1e-3) ~ 1 - 5e-7 coincide at
    --tol 1e-6 and are distinct at 1e-9."""
    t = 1e-3
    f = tmp_path / "close.json"
    f.write_text(json.dumps({"coords": [[1, 0], [math.cos(t), math.sin(t)], [-1, 0]]}))
    res = invoke(runner, ["check", "balanced", str(f), "--tol", "1e-6"])
    assert res.exit_code == 2
    assert res.stderr == "error: points 0 and 1 coincide (inner product >= 1 - 1e-06)\n"
    res = invoke(runner, ["check", "balanced", str(f), "--tol", "1e-9"])
    assert res.exit_code in (0, 1) and res.stderr == ""


@pytest.mark.parametrize("command", [["energy", "-s", "1"], ["force", "-s", "1"]])
def test_a_pair_difference_past_float64_exits_2(runner, tmp_path, command):
    """Two finite points whose difference overflows float64 would give a
    NaN force or a 0.0 energy; both commands refuse them, warning nothing."""
    f = tmp_path / "far.json"
    f.write_text(json.dumps({"coords": [[1, 0], [1e308, 1e308], [-1e308, 1e308], [0, 1]]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = invoke(runner, [*command, str(f)])
    assert caught == []
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == ("error: points 1 and 2 are too far apart: "
                          "their difference overflows float64\n")


def no_constant(name):
    raise ValueError(f"{name} in JSON output")


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would go to stderr
@pytest.mark.parametrize("command, coords, key, want", [
    (["energy", "-s", "1"], [[1e200, 0], [-1e200, 0], [0, 1]], "energy", 2.5e-200),
    (["energy", "-s", "1"], [[1e-160, 0], [0, 1e-160], [1, 0]], "energy",
     1e160 / math.sqrt(2) + 2),
    (["force", "-s", "1"], [[1e-100, 0], [0, 1e-100], [1, 0]], "max_tangential_norm",
     1e200 / (2 * math.sqrt(2))),
], ids=["energy-far", "energy-near", "force-near"])
def test_pairs_whose_squares_leave_float64_give_closed_forms(runner, tmp_path, command, coords,
                                                             key, want):
    """Squared distances of 4e400 and 2e-320, and a squared force of 1.25e399,
    are past float64's normal range; the lengths are not."""
    f = tmp_path / "points.json"
    f.write_text(json.dumps({"coords": coords}))
    res = invoke(runner, [*command, str(f)])
    assert res.exit_code == 0
    assert res.stderr == ""
    assert json.loads(res.stdout, parse_constant=no_constant)[key] == pytest.approx(want, rel=1e-15)


# a = 5.8e-155: each pair pulls point 0 by 1/(2 a^2) ~ 1.5e308 and their sum
# along x, its tangent, is 0.71 / a^2 ~ 2.1e308
A = 5.8e-155


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, coords, message", [
    (["force", "-s", "1"], [[1e-160, 0], [0, 1e-160], [1, 0]],
     "points 0 and 1 are too close: their pair term overflows float64"),
    (["energy", "-s", "2"], [[1, 0], [1e-160, 0], [0, 1e-160]],
     "points 1 and 2 are too close: their pair term overflows float64"),
    (["energy", "-s", "1"], [[1e-308, 0], [0, 1e-308], [-1e-308, 0]],
     "the energy overflows float64"),
    (["force", "-s", "1"], [[0, 3 * A], [-A, 4 * A], [-A, 2 * A]],
     "the tangential force on point 0 overflows float64"),
], ids=["force-pair", "energy-pair", "energy-sum", "force-sum"])
def test_a_result_past_float64_exits_2(runner, tmp_path, command, coords, message):
    f = tmp_path / "points.json"
    f.write_text(json.dumps({"coords": coords}))
    res = invoke(runner, [*command, str(f)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [["construct", "c7prime"], ["construct", "kissing", "d4"]])
def test_construct_prints_the_file_it_writes(runner, tmp_path, args):
    out = tmp_path / "built.json"
    assert invoke(runner, [*args, "-o", str(out)]).exit_code == 0
    res = invoke(runner, args)
    assert res.exit_code == 0
    assert res.stdout == out.read_text()


MISSING = object()  # the input path is given but no file is written there


@pytest.mark.parametrize("args, doc, message", [
    (["construct", "c7prime", "--tetra", "a,b"], None, "bad --tetra value 'a,b'"),
    (["construct", "c7prime", "--tetra", "0,0,1,2"], None,
     "need 4 distinct indices, got (0, 0, 1, 2)"),
    (["construct", "c7prime", "--tetra", "0,1,2,99"], None,
     "tetrahedron index out of range: (0, 1, 2, 99)"),
    (["construct", "polytope", "cross-polytope", "-n", "0"], None,
     "cross polytope needs n >= 1, got 0"),
    (["construct", "polytope", "simplex", "-n", "0"], None, "simplex needs n >= 1, got 0"),
    (["report"], {"gram": [["1", "0"], ["0", "1"]], "labels": ["a"]},
     "{f}: 1 labels for 2 points"),
    (["report"], {"gram": [["1", "0"], ["0", "1"]], "labels": "ab"},
     "{f}: 'labels' must be a list"),
    (["report"], [{"gram": [["1"]]}], "{f}: top-level JSON value must be an object"),
    (["check", "euclidean"], {}, "{f}: missing 'points' field"),
    (["report"], {"x": 1}, "{f}: expected a 'gram' or 'coords' field"),
    (["construct", "kissing", "nosuch"], None,
     "unknown bundled lattice 'nosuch' (try one of ('z2', 'z3', 'd4', 'e8', 'k12', 'leech'))"),
    (["construct", "kissing", "z0"], None, "bad lattice dimension in 'z0'"),
    (["construct", "srg-embedding"], MISSING, "{f}: No such file or directory"),
    (["report"], {"coords": []}, "{f}: coordinates must form a nonempty N x r array"),
    (["force", "-s", "1"], {"coords": [[1, 0], [1, 0]]}, "coincident points"),
], ids=["tetra-not-integers", "tetra-repeated", "tetra-out-of-range", "cross-polytope-n0",
        "simplex-n0", "labels-length", "labels-not-list", "top-level-array",
        "euclidean-no-points", "no-gram-or-coords", "unknown-lattice", "z0", "missing-graph",
        "empty-coords", "coincident-coords"])
def test_input_checks_exit_2(runner, tmp_path, args, doc, message):
    f = tmp_path / "input.json"
    if doc is not None:
        if doc is not MISSING:
            f.write_text(json.dumps(doc))
        args = [*args, str(f)]
    res = invoke(runner, args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr == f"error: {message.format(f=f)}\n"


def test_library_input_checks_the_cli_cannot_reach():
    d4 = bundled_lattice("d4")
    for build, message in [
        (lambda: PermutationGroup(3, [(0, 0, 1)]), r"not a permutation of 0\.\.2: \(0, 0, 1\)"),
        (lambda: ColoredGraph(2, [[-1, 0], [0]]), "edge colours must form a 2 x 2 array"),
        (lambda: GramMatrix(Scaled(0, np.eye(2, dtype=np.int64))), "positive denominator"),
        (lambda: short_vectors(d4, 0), "norm 0 < 1"),
    ]:
        with pytest.raises(StructuralError, match=message):
            build()


def test_the_empty_graph_has_the_trivial_group():
    group = automorphism_group(ColoredGraph(0, np.zeros((0, 0), dtype=np.int64)))
    assert (group.degree, group.generators, group.order()) == (0, (), 1)


# bytes that no reader can decode into a value: not UTF-8, JSON nested past the
# recursion limit, an integer literal past Python's integer-string digit limit
UNDECODABLE = {
    "not-utf8": b'{"gram": [["\xff"]]}',
    "deep": b"[" * 200_000,
    "long-integer": b'{"gram": [[' + b"1" * 5000 + b"]]}",
}
JSON_READERS = {"load_point_input": ["report"], "read_configuration": ["check", "group-balanced"],
                "read_euclidean": ["check", "euclidean"], "read_lattice": ["construct", "kissing"]}


def exits_2_naming(runner, args, path):
    res = invoke(runner, [*args, str(path)])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.startswith(f"error: {path}: ")
    assert "Traceback" not in res.stderr
    return res.stderr


@pytest.mark.parametrize("args", JSON_READERS.values(), ids=JSON_READERS)
@pytest.mark.parametrize("kind", UNDECODABLE)
def test_undecodable_json_exits_2(runner, tmp_path, args, kind):
    f = tmp_path / "input.json"
    f.write_bytes(UNDECODABLE[kind])
    message = exits_2_naming(runner, args, f)
    if kind == "not-utf8":
        assert message.startswith(f"error: {f}: byte 0xff at offset 12 is not ")
    else:
        assert message == f"error: {f}: " + {
            "deep": "JSON nested too deeply",
            "long-integer": f"an integer has more than {sys.get_int_max_str_digits()} digits",
        }[kind] + "\n"


def test_undecodable_graph_exits_2(runner, tmp_path):
    f = tmp_path / "graph.txt"
    f.write_bytes(b"0 1\n1 \xff\n")
    assert exits_2_naming(runner, ["construct", "srg-embedding"], f).startswith(
        f"error: {f}: byte 0xff at offset 6 is not ")
