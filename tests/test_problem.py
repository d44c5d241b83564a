"""Problem records, augmented Lagrangian, functional evaluation, files."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from delayvar.errors import OutOfDomain, UnknownVariable
from delayvar.euler_lagrange import PathRecord
from delayvar.problem import (
    ArgLayout,
    ArgVector,
    AugmentedSetup,
    ControlProblem,
    Integrand,
    IsoperimetricProblem,
    TransformationGroup,
    args_at,
    augmented_integrand,
    constraint_defect,
    constraint_values,
    functional_value,
    integrand_from_expr,
    problem_from_json,
)
from delayvar.solver import solve_el, verify
from delayvar.trajectory import PolySegment, Trajectory

from conftest import EX1_I, EX1_J

DATA = Path(__file__).parent / "problems"


def test_layout_slots():
    layout = ArgLayout.variational(2, 3)
    assert layout.size == 1 + 2 * 3 * 3
    assert layout.block_slice(1) == slice(0, 1)
    assert layout.block_slice(4) == slice(7, 10)   # qddot block
    assert layout.block_slice(5) == slice(10, 13)  # first delayed block


def test_record_validation():
    L = integrand_from_expr("q", 1, 1)
    with pytest.raises(ValueError, match="tau"):
        IsoperimetricProblem(m=1, n=1, tau=2.0, t1=0.0, t2=1.0, L=L)
    with pytest.raises(ValueError, match="constraint"):
        IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0, L=L,
                             g=(L,), l=[1.0, 2.0])
    with pytest.raises(ValueError, match="lambda"):
        AugmentedSetup(IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0, L=L),
                       [1.0])


@pytest.mark.parametrize("fields, message", [
    ({"m": 0}, "need m >= 1 and n >= 1, got m = 0, n = 1"),
    ({"n": 0}, "need m >= 1 and n >= 1, got m = 1, n = 0"),
    ({"tau": 0.0}, "tau must be positive"),
    ({"tau": -0.5}, "tau must be positive"),
])
def test_variational_fields_are_checked(fields, message):
    L = integrand_from_expr("t", 1, 1)
    with pytest.raises(ValueError, match=message):
        IsoperimetricProblem(**{"m": 1, "n": 1, "tau": 0.5, "t1": 0.0, "t2": 1.0, "L": L,
                                **fields})


@pytest.mark.parametrize("fields, message", [
    ({"tau": 0.0}, "need 0 < tau < t2 - t1"),
    ({"tau": 1.0}, "need 0 < tau < t2 - t1"),
    ({"phi": ()}, "phi must have one component per state dimension"),
])
def test_control_fields_are_checked(fields, message):
    u = Integrand(lambda v: v[2], name="u")
    with pytest.raises(ValueError, match=message):
        ControlProblem(**{"n": 1, "mc": 1, "tau": 0.5, "t1": 0.0, "t2": 1.0, "L": u,
                          "phi": (u,), **fields})


def test_arg_vector_size_is_checked():
    with pytest.raises(ValueError, match="4 values for a layout of size 5"):
        ArgVector([0.0] * 4, ArgLayout.variational(1, 1))


def test_history_is_needed_to_stitch():
    problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                   L=integrand_from_expr("qd^2", 1, 1))
    with pytest.raises(ValueError, match="problem has no history function"):
        problem.stitched_history()


@pytest.mark.parametrize("use", [
    lambda problem, traj: functional_value(problem, traj),
    lambda problem, traj: PathRecord(problem.L, problem, traj, [0.5]),
    lambda problem, traj: verify(problem, traj, [0.0]),
], ids=["integrals", "PathRecord", "verify"])
def test_trajectory_component_count_is_checked(ex1_problem, ex1_traj, use):
    # example1's path copied into two components, on the n = 1 problem
    two = Trajectory(2, 2, [PolySegment(s.a, s.b, np.vstack([s.coeffs] * 2))
                            for s in ex1_traj.segments], ex1_traj.nonsmooth_knots)
    with pytest.raises(ValueError, match="trajectory has 2 components, problem has n = 1"):
        use(ex1_problem, two)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_non_finite_multiplier_is_rejected(lam):
    L = integrand_from_expr("qd^2", 1, 1)
    problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0, L=L, g=(L,), l=[1.0])
    with pytest.raises(ValueError, match="lambda must be finite"):
        AugmentedSetup(problem, [lam])


class TestReads:
    """The argument slots an integrand reads: derived from an expression's
    names, unknown (None) for a callable."""

    @pytest.mark.parametrize("text, m, n, slots", [
        ("(qdd + qdd_tau)^2", 2, 1, {3, 6}),             # sugar names
        ("d1q1 * d0q0_tau - d1q1", 1, 2, {4, 5}),        # canonical names, n = 2
        ("t * qd", 1, 1, {0, 2}),
        ("2 * pi - e", 1, 1, set()),                     # constants only
    ])
    def test_expression(self, text, m, n, slots):
        assert integrand_from_expr(text, m, n).reads == frozenset(slots)

    def test_callable_is_unknown(self):
        assert Integrand(lambda v: v[1]).reads is None

    def test_unknown_name_fails_when_compiled(self):
        with pytest.raises(UnknownVariable):
            integrand_from_expr("q + zz", 1, 1)

    def test_augmented_union_drops_zero_multipliers(self, ex1_problem):
        assert augmented_integrand(AugmentedSetup(ex1_problem, [0.0])).reads == {3, 6}
        assert augmented_integrand(AugmentedSetup(ex1_problem, [2.0])).reads == {2, 3, 5, 6}

    def test_augmented_with_a_callable_part_is_unknown(self):
        expr_part = integrand_from_expr("qd^2", 1, 1)
        opaque = Integrand(lambda v: v[1], name="q")
        for L, g, lam, reads in ((expr_part, opaque, 1.0, None),
                                 (opaque, expr_part, 1.0, None),
                                 (expr_part, opaque, 0.0, frozenset({2}))):
            problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                           L=L, g=(g,), l=[0.0])
            assert augmented_integrand(AugmentedSetup(problem, [lam])).reads == reads


def test_args_at_evaluates_each_shift_once(ex1_traj, monkeypatch):
    """The delayed jet takes one batched eval per shift: 2 calls, not 2(m+1)."""
    calls = []
    plain = Trajectory.eval

    def counted(self, t, order=0):
        calls.append(order)
        return plain(self, t, order)

    ts = np.array([1.2, 1.5, 1.9])
    expected = [ts] + [plain(ex1_traj, ts + shift, j)[:, 0]
                       for shift in (0.0, -1.0) for j in range(3)]
    monkeypatch.setattr(Trajectory, "eval", counted)
    values = args_at(ex1_traj, ts, 1.0, 2).values
    assert len(calls) == 2
    assert all(np.array_equal(v, e) for v, e in zip(values, expected))
    scalar = args_at(ex1_traj, 1.5, 1.0, 2).values
    assert len(calls) == 4 and all(isinstance(v, float) for v in scalar)
    assert scalar == [v[1] for v in values]


class TestAugmentedIntegrand:
    def test_zero_multiplier_is_lagrangian(self, ex1_problem):
        F = augmented_integrand(AugmentedSetup(ex1_problem, [0.0]))
        args = [1.5, -3.0625, -13.5, -27.0, 0.0625, 0.5, 3.0]
        assert F(args) == ex1_problem.L(args) == pytest.approx(576.0)

    def test_constant_arithmetic(self):
        one = Integrand(lambda v: 1.0, name="1")
        three = Integrand(lambda v: 3.0, name="3")
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=one, g=(three,), l=[0.0])
        F = augmented_integrand(AugmentedSetup(problem, [2.0]))
        assert F([0.0] * 5) == pytest.approx(-5.0)

    def test_linear_in_lambda_property(self, ex1_problem):
        rng = np.random.default_rng(21)
        for _ in range(30):
            l1, l2 = rng.uniform(-3, 3, size=2)
            args = list(rng.uniform(-2, 2, size=7))
            f1 = augmented_integrand(AugmentedSetup(ex1_problem, [l1]))(args)
            f2 = augmented_integrand(AugmentedSetup(ex1_problem, [l2]))(args)
            f12 = augmented_integrand(AugmentedSetup(ex1_problem, [l1 + l2]))(args)
            base = ex1_problem.L(args)
            assert f12 == pytest.approx(f1 + f2 - base, rel=1e-12, abs=1e-12)



class TestFunctionalValue:
    def test_example1_oracle(self, ex1_problem, ex1_traj):
        # oracle: 144 int_0^2 (2t-1)^2 dt = 672 by closed-form antiderivative
        assert functional_value(ex1_problem, ex1_traj) == pytest.approx(EX1_J, abs=1e-6)

    def test_unit_lagrangian(self):
        one = Integrand(lambda v: np.ones_like(np.asarray(v[0], dtype=float)), name="1")
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=2.0, L=one)
        traj = Trajectory(1, 1, [PolySegment(-0.5, 2.0, [[0.0, 0.0]])])
        assert functional_value(problem, traj) == pytest.approx(2.0, abs=1e-12)

    def test_velocity_squared_line(self):
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=integrand_from_expr("qd^2", 1, 1))
        traj = Trajectory(1, 1, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0]])])
        assert functional_value(problem, traj) == pytest.approx(1.0, abs=1e-12)

    def test_coverage_error(self, ex1_problem):
        short = Trajectory(1, 2, [PolySegment(0.0, 2.0, [[0.0]])])
        with pytest.raises(OutOfDomain):
            functional_value(ex1_problem, short)

    def test_additive_over_splits(self, ex1_problem, ex1_traj):
        """Adding interior breakpoints must not change the value (1e-10)."""
        from delayvar import calculus
        from delayvar.problem import _quadrature_breaks, args_at

        def fn(ts):
            return np.asarray(ex1_problem.L(args_at(ex1_traj, ts, 1.0, 2).values), dtype=float)

        breaks = _quadrature_breaks(ex1_problem, ex1_traj)
        base = calculus.integrate(fn, 0.0, 2.0, breaks)
        more = calculus.integrate(fn, 0.0, 2.0, sorted(set(breaks) | {0.37, 1.61, 0.9}))
        split = (calculus.integrate(fn, 0.0, 0.77, breaks)
                 + calculus.integrate(fn, 0.77, 2.0, breaks))
        assert more == pytest.approx(base, abs=1e-10)
        assert split == pytest.approx(base, abs=1e-10)


class TestLowDegreeCandidate:
    """A path of degree below the order a problem reads: past its degree a
    derivative is zero, so q = t is audited at m = 2 rather than refused."""

    PROBLEM = IsoperimetricProblem(m=2, n=1, tau=0.5, t1=0.0, t2=1.0,
                                   L=integrand_from_expr("qdd^2 + qd^2", 2, 1),
                                   g=(integrand_from_expr("q", 2, 1),), l=[0.5])
    LINE = Trajectory(1, 2, [PolySegment.from_monomial(-0.5, 1.0, [[0.0, 1.0]])])

    def test_functional_and_constraint(self):
        assert functional_value(self.PROBLEM, self.LINE) == pytest.approx(1.0, abs=1e-12)
        assert constraint_values(self.PROBLEM, self.LINE) == pytest.approx([0.5], abs=1e-12)

    def test_args_at(self):
        # t, q, qd, qdd, then the same at t - tau
        assert args_at(self.LINE, 0.7, 0.5, 2).values == pytest.approx(
            [0.7, 0.7, 1.0, 0.0, 0.2, 1.0, 0.0], abs=1e-12)

    def test_verify(self):
        # L's EL expression 0 - (2 qd)' + (2 qdd)'' vanishes on the line, as does DR
        sup = verify(self.PROBLEM, self.LINE, (0.0,)).sup
        assert max(sup["el_first"], sup["el_second"], sup["dr_first"], sup["dr_second"]) <= 1e-12
        assert sup["constraint_defect"] <= 1e-12


class TestConstraints:
    def test_no_constraints(self, ex1_traj):
        problem = IsoperimetricProblem(m=2, n=1, tau=1.0, t1=0.0, t2=2.0,
                                       L=integrand_from_expr("qdd^2", 2, 1))
        assert constraint_values(problem, ex1_traj).shape == (0,)

    def test_example1_oracle(self, ex1_problem, ex1_traj):
        # oracle: 16 int_0^2 (3t^2-3t+1)^2 dt = 16 * 15.6 = 249.6
        values = constraint_values(ex1_problem, ex1_traj)
        assert values[0] == pytest.approx(EX1_I, abs=1e-6)
        assert constraint_defect(ex1_problem, ex1_traj)[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_integrand(self):
        zero = Integrand(lambda v: np.zeros_like(np.asarray(v[0], dtype=float)), name="0")
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                       L=zero, g=(zero,), l=[0.0])
        traj = Trajectory(1, 1, [PolySegment(-0.5, 1.0, [[0.0, 0.0]])])
        assert constraint_values(problem, traj)[0] == 0.0

    def test_parabola_area(self, classical_problem, classical_traj):
        assert constraint_values(classical_problem, classical_traj)[0] == pytest.approx(
            1.0 / 6.0, abs=1e-12)

    def test_defect_against_given_l(self):
        one = Integrand(lambda v: np.ones_like(np.asarray(v[0], dtype=float)), name="1")
        problem = IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=2.0,
                                       L=one, g=(one,), l=[0.0])
        traj = Trajectory(1, 1, [PolySegment(-0.5, 2.0, [[0.0, 0.0]])])
        assert constraint_defect(problem, traj)[0] == pytest.approx(2.0, abs=1e-12)


class TestProblemFiles:
    def test_parse_schema(self):
        text = """
        {"m": 1, "n": 1, "tau": 0.5, "t1": 0.0, "t2": 1.0,
         "L": "qd^2", "g": ["q"], "l": [0.16666666666666666],
         "history": "t * (1 - t)", "boundary": {"q": [0.0]}}
        """
        problem = problem_from_json(text)
        assert problem.m == 1 and problem.k == 1
        assert problem.history(-0.25)[0] == pytest.approx(-0.3125)
        assert problem.boundary[0, 0] == 0.0
        args = [0.0, 0.0, 3.0, 0.0, 0.0]
        assert problem.L(args) == 9.0

    def test_two_component_history_with_a_constant_component(self):
        # history ["t * (1 - t)", "0"]: the constant component broadcasts
        # against the other on a time array
        problem = problem_from_json((DATA / "classical_two_component.json").read_text())
        ts = np.linspace(-0.5, 0.0, 5)
        assert np.array_equal(problem.history(ts), [ts * (1 - ts), np.zeros(5)])
        traj, lam, report = solve_el(problem)
        assert report.converged and abs(lam[0] - 4.0) <= 1e-12
        ts = np.linspace(-0.5, 1.0, 61)
        assert np.max(np.abs(traj.eval(ts)[:, 1])) <= 1e-15
        assert np.max(np.abs(traj.eval(ts)[:, 0] - ts * (1 - ts))) <= 1e-12

    def test_m2_boundary_keys(self):
        text = """
        {"m": 2, "n": 1, "tau": 1.0, "t1": 0.0, "t2": 2.0,
         "L": "(qdd + qdd_tau)^2", "g": ["(qd + qd_tau)^2"], "l": [249.6],
         "history": "-t^4", "boundary": {"q": [-14.0], "qd": [-32.0]}}
        """
        problem = problem_from_json(text)
        assert problem.boundary[1, 0] == -32.0

    @pytest.mark.parametrize("fields, message", [
        ({"k": 2}, "k = 2 but 1 constraint expressions given"),
        ({"history": 3}, "history must be an expression in t or a list of 1, got 3"),
        ({"history": ["t", 0]}, "history must be an expression in t or a list of 1"),
        ({"history": [["t"]]}, "history must be an expression in t or a list of 1"),
        ({"m": 0, "L": "q^2"}, "need m >= 1 and n >= 1"),
        ({"m": 1.5}, "m and n must be integers, got m = 1.5, n = 1"),
        ({"n": "1"}, "m and n must be integers"),
        ({"m": float("inf")}, "m and n must be integers"),
        ({"L": 3}, "L must be an expression and g a list of them, got 3"),
        ({"g": "q"}, "L must be an expression and g a list of them, got 'qd\\^2', 'q'"),
        ({"g": ["q", 1]}, "L must be an expression and g a list of them"),
        ({"k": None}, "k = None but 1 constraint expressions given"),
        ({"k": 1.5}, "k = 1.5 but 1 constraint expressions given"),
        ({"boundary": [0]}, "boundary must be an object, got \\[0\\]"),
        ({"boundry": {"q": [1.0]}}, "unknown problem-file keys \\['boundry'\\]"),
        ({"tau": "0.5"}, "tau must be a number, got '0.5'"),
        ({"t2": True}, "t2 must be a number, got True"),
        ({"m": True}, "m and n must be integers, got m = True"),
        ({"l": 1.0 / 6.0}, "l must be a list of 1 numbers, got 0.1666"),
        ({"l": ["0.16666666666666666"]}, "l must be a list of 1 numbers, got \\['0.1666"),
        ({"boundary": {"q": [0.0], "qdd": [0.0]}},
         "boundary must list the keys \\['q'\\], got \\['q', 'qdd'\\]"),
        ({"m": 2}, "boundary must list the keys \\['q', 'qd'\\], got \\['q'\\]"),
        ({"boundary": {"q": 0.0}}, "boundary q must be a list of 1 numbers, got 0.0"),
    ])
    def test_bad_field_raises(self, fields, message):
        record = {"m": 1, "n": 1, "tau": 0.5, "t1": 0.0, "t2": 1.0, "L": "qd^2", "g": ["q"],
                  "l": [1.0 / 6.0], "history": "t * (1 - t)", "boundary": {"q": [0.0]}}
        record.update(fields)
        with pytest.raises(ValueError, match=message):
            problem_from_json(json.dumps(record))

    @pytest.mark.parametrize("text", ["5", '"x"', "[1, 2]", "null"])
    def test_top_level_not_an_object_raises(self, text):
        with pytest.raises(ValueError, match="a problem file must hold a JSON object"):
            problem_from_json(text)

    def test_stitched_history_derivatives(self, classical_problem):
        segs = classical_problem.stitched_history()
        hist = Trajectory(1, 1, segs, validate=False)
        assert hist.eval(0.0, 1)[0] == pytest.approx(1.0, abs=1e-10)


def _variational(g, l):
    return IsoperimetricProblem(m=1, n=1, tau=0.5, t1=0.0, t2=1.0,
                                L=integrand_from_expr("qd^2", 1, 1), g=g, l=l)


def _control(g, l):
    return ControlProblem(n=1, mc=1, tau=0.5, t1=0.0, t2=1.0,
                          L=Integrand(lambda v: v[2] * v[2], name="u^2"),
                          phi=(Integrand(lambda v: v[2], name="u"),), g=g, l=l)


@pytest.mark.parametrize("build", [_variational, _control])
class TestConstraintTargets:
    """Both problem kinds take one finite target per constraint integrand."""

    G = (Integrand(lambda v: v[1], name="q"),)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_target_raises(self, build, value):
        with pytest.raises(ValueError, match="constraint targets must be finite"):
            build(self.G, [value])

    @pytest.mark.parametrize("count", [0, 2])
    def test_one_target_per_integrand(self, build, count):
        with pytest.raises(ValueError, match=f"1 constraint integrands but {count} targets"):
            build(self.G, [1.0] * count)


def test_transformation_group_fields():
    # the generators and the gauge term; nothing else to set or to read
    assert [f.name for f in dataclasses.fields(TransformationGroup)] == ["eta", "xi", "gauge"]
