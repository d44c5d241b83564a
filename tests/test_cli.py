"""Command-line interface: exit codes, output formats, error handling."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from delayvar import cli, registry, solver
from delayvar.cli import main
from delayvar.euler_lagrange import PathRecord, residual_grids
from delayvar.problem import AugmentedSetup, augmented_integrand, problem_from_json
from delayvar.trajectory import PolySegment, Trajectory

CLASSICAL_JSON = """{
  "m": 1, "n": 1, "tau": 0.5, "t1": 0.0, "t2": 1.0,
  "L": "qd^2", "g": ["q"], "l": [0.16666666666666666],
  "history": "t * (1 - t)", "boundary": {"q": [0.0]}
}"""


TWO_COMPONENT = Path(__file__).parent / "problems" / "classical_two_component.json"


@pytest.fixture()
def classical_file(tmp_path):
    path = tmp_path / "classical.json"
    path.write_text(CLASSICAL_JSON)
    return str(path)


class TestResiduals:
    def test_example1_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["residuals", "--example", "example1", "--grid", "200",
                     "--out", str(out)]) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["t", "el_0", "dr_quantity", "dr_residual", "cdur"]
        # the header and 196 times: of the 200 uniform ones, 0, 2 and the two
        # next to 1 lie within 1 % of the shortest segment (1e-2) of a break
        assert len(rows) > 150
        summary = json.loads(capsys.readouterr().out)
        assert summary["sup"]["el"] <= 1e-7
        assert summary["sup"]["cdur"] >= 500.0

    def test_cdur_cells_by_regime(self, tmp_path, capsys):
        # cdur is written on the first regime's rows only, at 17 digits
        out = tmp_path / "r.csv"
        assert main(["residuals", "--example", "example1", "--grid", "2000",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        rows = out.read_text().splitlines()[1:]
        entry = registry.get("example1")
        setup = AugmentedSetup(entry.build(), entry.lam)
        times = residual_grids(setup.problem, entry.trajectory(), count=2000)
        first, second = times[times < 1.0], times[times > 1.0]
        assert len(rows) == len(first) + len(second) and len(first) > 900 and len(second) > 900
        record = PathRecord(augmented_integrand(setup), setup.problem, entry.trajectory(), first)
        assert [row.rsplit(",", 1)[1] for row in rows[:len(first)]] == [
            "%.17g" % v for v in record.cdur_advanced]
        assert all(row.endswith(",") and row.count(",") == 4 for row in rows[len(first):])

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["residuals", "--problem", str(tmp_path / "nope.json"),
                     "--trajectory", str(tmp_path / "nope2.json")]) == 2

    def test_grid_zero_exits_2(self):
        assert main(["residuals", "--example", "example1", "--grid", "0"]) == 2

    def test_no_source_exits_2(self):
        assert main(["residuals"]) == 2


class TestInputErrors:
    """Each input error exits 2 with one `error:` line on stderr."""

    def _exits_2(self, argv, capsys, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_unknown_example(self, capsys):
        self._exits_2(["residuals", "--example", "nonesuch"], capsys,
                      "unknown example 'nonesuch'; known: ")

    def test_unknown_verify_name(self, capsys):
        self._exits_2(["verify", "nonesuch"], capsys, "unknown example 'nonesuch'")

    def test_control_example_for_residuals(self, capsys):
        self._exits_2(["residuals", "--example", "autonomous-lq"], capsys,
                      "example 'autonomous-lq' is a control problem")

    def test_no_source(self, capsys):
        self._exits_2(["solve"], capsys, "need --example NAME or --problem FILE")

    def test_problem_without_trajectory(self, classical_file, capsys):
        self._exits_2(["residuals", "--problem", classical_file], capsys, "no trajectory")

    def test_xi_components_mismatch(self, capsys):
        self._exits_2(["invariance", "--example", "example1", "--eta", "0", "--xi", "1,2"],
                      capsys, "xi needs 1 components, got 2")

    @pytest.mark.parametrize("eta", ["(" * 400 + "t" + ")" * 400, "q**2", "None"],
                             ids=["400-nested-parens", "python-power", "python-keyword"])
    def test_generator_outside_the_grammar(self, capsys, eta):
        # too deep for Python's parser, a Python operator the grammar lacks, a keyword
        self._exits_2(["invariance", "--example", "example1", "--eta", eta, "--xi", "0"],
                      capsys, "syntax error at offset")

    def test_solve_without_history(self, tmp_path, capsys):
        problem = tmp_path / "no_history.json"
        problem.write_text(json.dumps({
            "m": 1, "n": 1, "tau": 0.5, "t1": 0.0, "t2": 1.0, "L": "qd^2",
            "boundary": {"q": [0.0]}}))
        self._exits_2(["solve", "--problem", str(problem)], capsys,
                      "problem has no history function")

    def test_solve_without_boundary(self, monkeypatch, tmp_path, capsys):
        # no terminal data: the record would have m n fewer rows than unknowns
        monkeypatch.setattr(solver, "_mesh", lambda *args: pytest.fail("collocation work"))
        record = json.loads(TWO_COMPONENT.read_text())
        del record["boundary"]
        problem = tmp_path / "no_boundary.json"
        problem.write_text(json.dumps(record))
        self._exits_2(["solve", "--problem", str(problem)], capsys, "problem has no boundary")

    @pytest.mark.parametrize("text", ["5", '"x"', "[1, 2]"])
    def test_problem_file_not_an_object(self, tmp_path, capsys, text):
        problem = tmp_path / "bad.json"
        problem.write_text(text)
        self._exits_2(["solve", "--problem", str(problem)], capsys,
                      "a problem file must hold a JSON object")


    @pytest.mark.parametrize("field, value, message", [
        ("l", [float("nan")], "constraint targets must be finite"),
        ("history", ["t", "t", "t"], "history lists 3 expressions for n = 2"),
        ("history", 3, "history must be an expression in t or a list of 2"),
        ("history", ["t", 0], "history must be an expression in t or a list of 2"),
        ("m", 1.5, "m and n must be integers"),
        ("L", 3, "L must be an expression and g a list of them"),
        ("g", "qd", "L must be an expression and g a list of them"),
        ("k", None, "k = None but 1 constraint expressions given"),
        ("k", 1.5, "k = 1.5 but 1 constraint expressions given"),
        ("boundary", [0], "boundary must be an object"),
        ("boundry", {"q": [1.0, 1.0]}, "unknown problem-file keys ['boundry']"),
        ("tau", "0.5", "tau must be a number, got '0.5'"),
        ("t2", True, "t2 must be a number, got True"),
        ("l", 0.16666666666666666, "l must be a list of 1 numbers, got 0.16666666666666666"),
        ("l", ["0.16666666666666666"], "l must be a list of 1 numbers"),
        ("boundary", {"q": [0.0, 0.0], "qdd": [0.0, 0.0]},
         "boundary must list the keys ['q'], got ['q', 'qdd']"),
        ("m", 2, "boundary must list the keys ['q', 'qd'], got ['q']"),
        ("boundary", {"q": [0.0]}, "boundary q must be a list of 2 numbers, got [0.0]"),
    ])
    def test_bad_problem_file(self, tmp_path, capsys, field, value, message):
        record = json.loads(TWO_COMPONENT.read_text())
        record[field] = value
        problem = tmp_path / "bad.json"
        problem.write_text(json.dumps(record))
        self._exits_2(["solve", "--problem", str(problem)], capsys, message)

    def test_unknown_history_name_fails_when_read(self, tmp_path, capsys):
        # a typo in history: the residual sweep does not read the history,
        # but the problem file is rejected when its expressions are compiled
        record = json.loads(TWO_COMPONENT.read_text())
        record["history"] = ["tt", "0"]
        problem, traj = tmp_path / "bad.json", tmp_path / "traj.json"
        problem.write_text(json.dumps(record))
        traj.write_text(Trajectory(2, 1, [PolySegment.from_monomial(
            -0.5, 1.0, [[0.0, 1.0, -1.0], [0.0, 0.0, 0.0]])]).to_json())
        self._exits_2(["residuals", "--problem", str(problem), "--trajectory", str(traj),
                       "--lambda", "4"], capsys, "unknown variable 'tt'")

    @pytest.mark.parametrize("command", ["conserved", "invariance"])
    def test_unknown_generator_name_fails_before_any_record(self, monkeypatch, capsys,
                                                             command):
        made = []
        init = PathRecord.__init__
        monkeypatch.setattr(PathRecord, "__init__",
                            lambda self, *a, **k: made.append(1) or init(self, *a, **k))
        self._exits_2([command, "--example", "example1", "--eta", "zz", "--xi", "0"], capsys,
                      "unknown variable 'zz'")
        assert made == []

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.update(segments=5), "segments must be a list of objects"),
        (lambda r: r["segments"][0].update(a="-1"), "segments must be a list of objects"),
        (lambda r: r["segments"][0].update(c=0), "segments must be a list of objects"),
        (lambda r: r.update(n=1.5), "trajectory n must be an integer, got 1.5"),
        (lambda r: r.update(n="1"), "trajectory n must be an integer, got '1'"),
        (lambda r: r.update(m=True), "trajectory m must be an integer, got True"),
        (lambda r: r["segments"][1]["coeffs"][0].__setitem__(2, float("nan")),
         "segment [0.0, 1.0] has a non-finite end or coefficient"),
        (lambda r: r.update(knots=[1.0]), "unknown trajectory keys ['knots']"),
        (lambda r: r.update(nonsmooth_knots=5), "nonsmooth_knots must be a list of finite"),
        (lambda r: r.update(nonsmooth_knots=["1"]), "nonsmooth_knots must be a list of finite"),
    ], ids=["segments-number", "a-string", "segment-key", "n-fraction", "n-string",
            "m-bool", "nan-coefficient", "unknown-key", "knots-number", "knots-string"])
    def test_bad_trajectory_file(self, tmp_path, capsys, edit, message):
        record = json.loads(registry.get("example1").trajectory().to_json())
        edit(record)
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(record))
        self._exits_2(["residuals", "--example", "example1", "--trajectory", str(path)],
                      capsys, message)

    def test_zero_order_problem_file(self, tmp_path, capsys):
        record = json.loads(TWO_COMPONENT.read_text())
        record.update(m=0, L="d0q0^2 + d0q1^2")
        problem = tmp_path / "m0.json"
        problem.write_text(json.dumps(record))
        self._exits_2(["solve", "--problem", str(problem)], capsys, "need m >= 1 and n >= 1")

    @pytest.mark.parametrize("command", ["residuals", "invariance", "conserved"])
    def test_trajectory_component_count(self, tmp_path, capsys, command):
        # example1's path copied into two components: the problem has n = 1
        record = json.loads(registry.get("example1").trajectory().to_json())
        record["n"] = 2
        for seg in record["segments"]:
            seg["coeffs"] = seg["coeffs"] * 2
        path = tmp_path / "two.json"
        path.write_text(json.dumps(record))
        self._exits_2([command, "--example", "example1", "--trajectory", str(path)], capsys,
                      "trajectory has 2 components, problem has n = 1")

    @pytest.mark.parametrize("flag, value", [("--nodes", "-5"), ("--nodes", "0"),
                                             ("--maxiter", "-3"), ("--tol", "nan"),
                                             ("--tol", "inf")])
    def test_impossible_scheme(self, classical_file, capsys, flag, value):
        self._exits_2(["solve", "--problem", classical_file, flag, value], capsys, "must be")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_multiplier(self, capsys, value):
        self._exits_2(["residuals", "--example", "example1", f"--lambda={value}"], capsys,
                      "lambda must be finite")

    @pytest.mark.parametrize("command", ["conserved", "invariance"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_impossible_report_tolerance(self, capsys, command, value):
        self._exits_2([command, "--example", "example1", "--eta", "1", "--xi", "0",
                       "--tol", value], capsys, "--tol must be finite and >= 0")

    def test_control_solve_output_as_trajectory(self, classical_file, tmp_path, capsys):
        out = tmp_path / "lq.json"
        assert main(["solve", "--example", "autonomous-lq", "--nodes", "16",
                     "--out", str(out)]) == 0
        self._exits_2(["residuals", "--problem", classical_file, "--trajectory", str(out)],
                      capsys, "expected a trajectory JSON object (n, m, segments) or the output "
                              "of `delayvar solve --out` on a variational problem")


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_solve_defaults_are_the_scheme_defaults():
    args = cli.build_parser().parse_args(["solve"])
    scheme = solver.CollocationScheme()
    assert (args.nodes, args.maxiter, args.tol) == (scheme.nodes, scheme.max_iterations, 1e-6)


class TestConserved:
    def test_example1_time_translation(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["conserved", "--example", "example1", "--eta", "1", "--xi", "0",
                     "--out", str(out), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["hypothesis_violated"] is True
        assert summary["deviation"]["second"] > 1.0  # audit: NOT constant
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["t", "regime", "C", "cdur_flag"]
        # the second-regime values interpolate the closed-form cubic, which
        # passes through 24 at t = 1.25 and -72 at t = 1.5
        ts = np.array([float(r[0]) for r in rows[1:]])
        cs = np.array([float(r[2]) for r in rows[1:]])
        cubic = -384 * ts ** 3 + 864 * ts ** 2 - 576 * ts + 144
        second = ts > 1.0
        assert np.max(np.abs(cs[second] - cubic[second])) <= 1e-5

    def test_regime_column_is_the_split(self, tmp_path, capsys):
        # the regime of a row is t < t2 - tau (= 1 on example1), with every time a row
        out = tmp_path / "c.csv"
        assert main(["conserved", "--example", "example1", "--eta", "1", "--xi", "0",
                     "--grid", "500", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        ts = np.array([float(r[0]) for r in rows])
        entry = registry.get("example1")
        assert np.array_equal(ts, residual_grids(entry.build(), entry.trajectory(), 500))
        assert [r[1] for r in rows] == np.where(ts < 1.0, "first", "second").tolist()

    def test_classical_constant(self, classical_file, tmp_path, capsys):
        traj_file = tmp_path / "traj.json"
        from delayvar.trajectory import PolySegment, Trajectory

        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0, -1.0]])])
        traj_file.write_text(traj.to_json())
        assert main(["conserved", "--problem", classical_file,
                     "--trajectory", str(traj_file), "--lambda", "4",
                     "--eta", "1", "--xi", "0", "--json",
                     "--out", str(tmp_path / "c.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert max(summary["deviation"].values()) <= 1e-6
        assert summary["mean"]["second"] == pytest.approx(-1.0, abs=1e-9)

    def test_zero_group_gives_zero(self, tmp_path, capsys):
        assert main(["conserved", "--example", "example1", "--eta", "0", "--xi", "0",
                     "--out", str(tmp_path / "c.csv"), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert max(abs(v) for v in summary["mean"].values()) <= 1e-12
        assert max(summary["deviation"].values()) <= 1e-12

    def test_parse_error_exits_2(self, tmp_path):
        assert main(["conserved", "--example", "example1", "--eta", "1@",
                     "--xi", "0", "--out", str(tmp_path / "c.csv")]) == 2


    def test_gauge_flag(self, tmp_path, capsys):
        assert main(["conserved", "--example", "example1", "--eta", "1", "--xi", "0",
                     "--gauge", "0", "--out", str(tmp_path / "c.csv"), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "deviation" in summary


@pytest.fixture()
def hypothesis_files(tmp_path):
    """L = qd^2 + q_tau^2, tau = 0.5, history t, q(1) = 0, and the path q = t
    on [-0.5, 0], 0 on [0, 1].  The hypothesis residual, defined on
    [t1 - tau, t2 - tau], is cdur(s) = 2 q(s) q'(s): 2s left of t1, 0 on
    [0, 0.5], so it fails only where the first regime's grid does not reach."""
    problem, traj = tmp_path / "p.json", tmp_path / "t.json"
    problem.write_text(json.dumps({"m": 1, "n": 1, "tau": 0.5, "t1": 0.0, "t2": 1.0,
                                   "L": "qd^2 + q_tau^2", "history": "t",
                                   "boundary": {"q": [0.0]}}))
    traj.write_text(Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 0.0, [[0.0, 1.0]]),
                                      PolySegment.from_monomial(0.0, 1.0, [[0.0]])]).to_json())
    return ["--problem", str(problem), "--trajectory", str(traj)]


class TestHypothesisOnItsDomain:
    def test_residuals_sup_is_verifys(self, hypothesis_files, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["residuals", *hypothesis_files, "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        problem = problem_from_json(Path(hypothesis_files[1]).read_text())
        traj = Trajectory.from_json(Path(hypothesis_files[3]).read_text())
        report = solver.verify(problem, traj, [])
        assert summary["sup"]["cdur"] == report.sup["cdur"]
        assert summary["sup"]["cdur"] == pytest.approx(0.98995, abs=5e-6)
        # the cdur column stays cdur(t) on the first regime's rows: zero here
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0][-1] == "cdur"
        cells = [row[-1] for row in rows[1:] if float(row[0]) < 0.5]
        assert cells and set(cells) == {"0"}

    def test_conserved_flags_the_hypothesis(self, hypothesis_files, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["conserved", *hypothesis_files, "--eta", "1", "--xi", "0", "--json",
                     "--out", str(out)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["hypothesis_violated"] is True
        rows = list(csv.reader(out.read_text().splitlines()))
        assert {row[3] for row in rows[1:]} == {"1"}


class TestInvariance:
    def test_autonomous_invariant(self, capsys):
        assert main(["invariance", "--example", "example1", "--eta", "1",
                     "--xi", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["invariance_defect"]) <= 1e-6
        assert payload["invariant_within_tol"] is True

    def test_generators_evaluated_once_per_sweep(self, monkeypatch, capsys):
        """Expression generators take whole time arrays: a few hundred
        expression evaluations in all, not one per stencil node."""
        from delayvar import expr

        calls = []
        original = expr.bind_eval

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(expr, "bind_eval", counted)
        assert main(["invariance", "--example", "example1", "--eta", "1", "--xi", "0"]) == 0
        capsys.readouterr()
        assert 0 < len(calls) <= 500

    def test_vector_xi_with_constant_component(self, tmp_path, capsys):
        """xi = (1, q0) mixes a constant with a varying component.  Under
        q -> (q0 + s, q1 + s q0) the action of d1q0^2 + d1q1^2 changes at the
        rate int_0^1 2 q0' q1' dt = -2/3 for q0 = t - t^2, q1 = t^2."""
        from delayvar.trajectory import PolySegment, Trajectory

        problem = tmp_path / "vector.json"
        problem.write_text(json.dumps({
            "m": 1, "n": 2, "tau": 0.5, "t1": 0.0, "t2": 1.0, "L": "d1q0^2 + d1q1^2"}))
        traj = tmp_path / "traj.json"
        traj.write_text(Trajectory(2, 1, [PolySegment.from_monomial(
            -0.5, 1.0, [[0.0, 1.0, -1.0], [0.0, 0.0, 1.0]])]).to_json())
        assert main(["invariance", "--problem", str(problem), "--trajectory", str(traj),
                     "--eta", "0", "--xi", "1,q0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["invariance_defect"] == pytest.approx(-2.0 / 3.0, abs=1e-6)


class TestSolve:
    def test_solve_classical_file(self, classical_file, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", "--problem", classical_file, "--nodes", "32",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["report"]["converged"] is True
        assert payload["report"]["reason"] == "converged"
        # linear in its unknowns: the start with its Jacobian, then the full step
        assert (payload["report"]["evaluations"], payload["report"]["jacobians"]) == (2, 1)
        assert payload["lambda"][0] == pytest.approx(4.0, abs=1e-5)
        from delayvar.trajectory import Trajectory

        traj = Trajectory.from_json(json.dumps(payload["trajectory"]))
        assert traj.eval(0.5, 0)[0] == pytest.approx(0.25, abs=1e-6)

    @pytest.mark.parametrize("command", [["residuals"], ["conserved", "--eta", "1", "--xi", "0"],
                                         ["invariance", "--eta", "1", "--xi", "0"]])
    def test_solve_output_is_a_trajectory_file(self, classical_file, tmp_path, capsys, command):
        out = tmp_path / "sol.json"
        assert main(["solve", "--problem", classical_file, "--nodes", "32",
                     "--out", str(out)]) == 0
        lam = ",".join(str(v) for v in json.loads(out.read_text())["lambda"])
        assert main([*command, "--problem", classical_file, "--trajectory", str(out),
                     "--lambda", lam]) == 0

    @pytest.mark.parametrize("nodes", ["96", "128"])
    def test_fine_mesh_output_feeds_the_reports(self, tmp_path, capsys, nodes):
        # the solution's segments are shorter than 2e-2, so a fixed 1e-2
        # neighbourhood of every break left no grid time
        out = tmp_path / "sol.json"
        assert main(["solve", "--problem", str(TWO_COMPONENT), "--nodes", nodes,
                     "--out", str(out)]) == 0
        source = ["--problem", str(TWO_COMPONENT), "--trajectory", str(out), "--lambda", "4"]
        capsys.readouterr()
        assert main(["residuals", *source, "--out", str(tmp_path / "r.csv"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["sup"]["el"] <= 1e-12
        assert main(["conserved", *source, "--eta", "1", "--xi", "0",
                     "--out", str(tmp_path / "c.csv"), "--json"]) == 0
        assert max(json.loads(capsys.readouterr().out)["deviation"].values()) <= 1e-12

    def test_maxiter_zero_exits_3(self, classical_file, tmp_path):
        out = tmp_path / "sol.json"
        assert main(["solve", "--problem", classical_file, "--maxiter", "0",
                     "--out", str(out)]) == 3
        assert json.loads(out.read_text())["report"]["reason"] == "max-iterations"

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", "--problem", str(bad)]) == 2

    def test_singular_jacobian_exits_2(self, tmp_path, capsys):
        # the same constraint twice: the Jacobian has two equal rows, and
        # np.linalg.solve's LinAlgError surfaces as SingularJacobian
        problem = tmp_path / "duplicated.json"
        problem.write_text(json.dumps({
            "m": 1, "n": 1, "tau": 0.5, "t1": 0.0, "t2": 1.0, "L": "qd^2",
            "g": ["q", "q"], "l": [1 / 6, 1 / 6], "history": "t * (1 - t)",
            "boundary": {"q": [0.0]}}))
        assert main(["solve", "--problem", str(problem), "--nodes", "16"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: collocation Jacobian is singular")
        assert "Traceback" not in err

    def test_internal_error_keeps_its_traceback(self, classical_file, monkeypatch):
        """Only bad files and flags exit 2: a ValueError past the input
        boundary is a bug and propagates out of main."""
        def broken(problem, scheme=None):
            raise ValueError("a bug inside the solver")

        monkeypatch.setattr(cli, "solve_el", broken)
        with pytest.raises(ValueError, match="a bug inside the solver"):
            main(["solve", "--problem", classical_file])

    def test_solve_control_example(self, tmp_path):
        out = tmp_path / "lq.json"
        assert main(["solve", "--example", "autonomous-lq", "--nodes", "16",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert {"state", "control", "costate", "report"} <= payload.keys()


class TestVerify:
    def test_example1_passes(self, capsys):
        assert main(["verify", "example1"]) == 0
        text = capsys.readouterr().out
        assert "pass" in text and "FAIL" not in text

    def test_unknown_name_exits_2(self):
        assert main(["verify", "nonesuch"]) == 2

    def test_json_output(self, capsys):
        assert main(["verify", "example1", "--json"]) == 0
        checks = json.loads(capsys.readouterr().out)
        names = {c["check"] for c in checks}
        assert any("J = 672" in n for n in names)
        gated = [c for c in checks if c["gated"]]
        assert all(c["passed"] for c in gated)
        flagged = [c for c in checks if "hypothesis" in c["check"]]
        assert flagged and flagged[0]["value"] == 1.0


def test_list_names(capsys):
    assert main(["list"]) == 0
    text = capsys.readouterr().out
    for name in ("example1", "autonomous-lq", "classical-iso"):
        assert name in text


def test_csv_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["residuals", "--example", "example1", "--grid", "120",
                 "--out", str(a)]) == 0
    assert main(["residuals", "--example", "example1", "--grid", "120",
                 "--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
