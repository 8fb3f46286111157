"""Solver-level tests: statuses, certificates, determinism, oracle agreement."""

import numpy as np
import pytest

from motkit.lp import (
    LinearProgram,
    LpBuilder,
    LpNumericalError,
    check_certificates,
    check_farkas_certificate,
    check_unbounded_ray,
    solve,
    write_mps,
)

from generators import random_tiny_lp
from oracles import solve_by_vertex_enumeration

RESIDUAL_TOL = 1e-8
ORACLE_TOL = 1e-7


def _lp(sense, c, rows, rels, b, lower=None, upper=None):
    c = np.asarray(c, dtype=float)
    n = c.size
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return LinearProgram(sense=sense, objective=c, lower=lower, upper=upper,
                         a=np.asarray(rows, dtype=float), relations=tuple(rels),
                         rhs=np.asarray(b, dtype=float))


class TestBasicStatuses:
    def test_one_variable_bound_row(self):
        # min x s.t. x >= 1
        lp = _lp("min", [1.0], [[1.0]], [">="], [1.0],
                 lower=[-np.inf])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-12)

    def test_simplex_face(self):
        # max x+y s.t. x+y <= 1, x,y >= 0
        lp = _lp("max", [1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_infeasible_with_farkas(self):
        # x >= 1 and x <= 0
        lp = _lp("min", [0.0], [[1.0], [1.0]], [">=", "<="], [1.0, 0.0],
                 lower=[-np.inf])
        sol = solve(lp)
        assert sol.status == "infeasible"
        assert sol.farkas is not None
        assert check_farkas_certificate(lp, sol.farkas) <= RESIDUAL_TOL

    def test_unbounded_with_ray(self):
        lp = _lp("max", [1.0, 0.0], [[0.0, 1.0]], ["<="], [1.0])
        sol = solve(lp)
        assert sol.status == "unbounded"
        assert sol.ray is not None
        assert check_unbounded_ray(lp, sol.ray) <= RESIDUAL_TOL

    def test_free_variables_and_equalities(self):
        # min x + y s.t. x + 2y = 3, x - y = 0  ->  x = y = 1
        lp = _lp("min", [1.0, 1.0], [[1.0, 2.0], [1.0, -1.0]], ["=", "="],
                 [3.0, 0.0], lower=[-np.inf, -np.inf])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-10)
        # equality rows have unambiguous duals here: y solves A'y = c
        assert np.allclose(lp.a.T @ sol.duals, lp.objective, atol=1e-9)

    def test_no_rows_bounds_only(self):
        lp = _lp("min", [2.0, -1.0], np.zeros((0, 2)), [], [],
                 lower=[0.5, 0.0], upper=[np.inf, 3.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(2.0 * 0.5 - 3.0, abs=1e-12)

    def test_iteration_cap_raises(self):
        lp = _lp("max", [1.0, 1.0], [[1.0, 2.0], [2.0, 1.0]], ["<=", "<="], [4.0, 4.0])
        with pytest.raises(LpNumericalError):
            solve(lp, max_iterations=1)

    def test_degenerate_cycling_example_terminates(self):
        # Beale's example makes naive most-negative pivoting cycle; the
        # anti-cycling fallback must still reach the optimum -1/20.
        lp = _lp("min", [-0.75, 150.0, -0.02, 6.0],
                 [[0.25, -60.0, -1.0 / 25.0, 9.0],
                  [0.5, -90.0, -1.0 / 50.0, 3.0],
                  [0.0, 0.0, 1.0, 0.0]],
                 ["<=", "<=", "<="], [0.0, 0.0, 1.0])
        sol = solve(lp)
        assert sol.status == "optimal"
        assert sol.value == pytest.approx(-0.05, abs=1e-10)
        assert check_certificates(lp, sol).max_violation <= RESIDUAL_TOL

    def test_bland_rule_from_the_start_agrees(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            lp = random_tiny_lp(rng)
            a = solve(lp, pivot_rule="dantzig")
            b = solve(lp, pivot_rule="bland")
            assert a.status == b.status
            if a.status == "optimal":
                assert a.value == pytest.approx(b.value, abs=1e-9)


class TestCertificates:
    def test_optimal_residuals_small(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(120):
            lp = random_tiny_lp(rng)
            sol = solve(lp)
            if sol.status != "optimal":
                continue
            report = check_certificates(lp, sol)
            assert report.max_violation <= RESIDUAL_TOL, (
                f"residuals too large: {report}")
            checked += 1
        assert checked > 40

    def test_perturbed_primal_detected(self):
        lp = _lp("max", [1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0])
        sol = solve(lp)
        x_bad = sol.x.copy()
        x_bad[0] += 1e-3
        from motkit.lp import primal_residual
        assert primal_residual(lp, x_bad) >= 1e-4

    def test_duals_solve_explicit_dual_lp(self):
        # canonical form: min c'x, Ax >= b, x >= 0; dual: max b'y, A'y <= c, y >= 0
        rng = np.random.default_rng(21)
        tested = 0
        while tested < 25:
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            a = rng.integers(-4, 5, size=(m, n)) / 4.0
            c = rng.integers(0, 9, size=n) / 4.0  # c >= 0 keeps the primal bounded
            b = rng.integers(-4, 5, size=m) / 4.0
            primal = _lp("min", c, a, [">="] * m, b)
            psol = solve(primal)
            if psol.status != "optimal":
                continue
            dual = _lp("max", b, a.T, ["<="] * n, c)
            dsol = solve(dual)
            assert dsol.status == "optimal"
            assert dsol.value == pytest.approx(psol.value, abs=ORACLE_TOL)
            # the engine's multipliers are feasible for the explicit dual
            y = psol.duals
            assert np.all(y >= -ORACLE_TOL)
            assert np.all(a.T @ y <= c + ORACLE_TOL)
            assert b @ y == pytest.approx(psol.value, abs=ORACLE_TOL)
            tested += 1

    def test_duals_max_sense_convention(self):
        # max c'x, Ax <= b, x >= 0; dual: min b'y, A'y >= c, y >= 0
        rng = np.random.default_rng(22)
        tested = 0
        while tested < 25:
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 4))
            a = rng.integers(-4, 5, size=(m, n)) / 4.0
            c = rng.integers(-8, 9, size=n) / 4.0
            b = rng.integers(0, 9, size=m) / 4.0  # b >= 0 keeps the primal feasible
            primal = _lp("max", c, a, ["<="] * m, b)
            psol = solve(primal)
            if psol.status != "optimal":
                continue
            y = psol.duals
            assert np.all(y >= -ORACLE_TOL)
            assert np.all(a.T @ y >= c - ORACLE_TOL)
            assert b @ y == pytest.approx(psol.value, abs=ORACLE_TOL)
            tested += 1

    def test_farkas_on_random_infeasible(self):
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(400):
            lp = random_tiny_lp(rng)
            sol = solve(lp)
            if sol.status == "infeasible":
                assert check_farkas_certificate(lp, sol.farkas) <= RESIDUAL_TOL
                found += 1
        assert found >= 10

    def test_rays_on_random_unbounded(self):
        rng = np.random.default_rng(4)
        found = 0
        for _ in range(400):
            lp = random_tiny_lp(rng)
            sol = solve(lp)
            if sol.status == "unbounded":
                assert check_unbounded_ray(lp, sol.ray) <= RESIDUAL_TOL
                found += 1
        assert found >= 10


class TestOracleAgreement:
    def test_status_and_value_match_vertex_enumeration(self):
        rng = np.random.default_rng(11)
        statuses = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(80):
            lp = random_tiny_lp(rng, max_vars=4, max_rows=3)
            sol = solve(lp)
            status, value = solve_by_vertex_enumeration(lp)
            assert sol.status == status, f"status mismatch vs oracle: {sol.status} != {status}"
            if status == "optimal":
                assert sol.value == pytest.approx(value, abs=ORACLE_TOL)
            statuses[status] += 1
        # the generator must exercise every status
        assert min(statuses.values()) >= 3, statuses


class TestDeterminismAndScaling:
    def test_identical_inputs_identical_solves(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lp = random_tiny_lp(rng)
            s1 = solve(lp)
            s2 = solve(lp)
            assert s1.status == s2.status
            assert s1.iterations == s2.iterations
            if s1.status == "optimal":
                assert np.array_equal(s1.x, s2.x)
                assert s1.value == s2.value

    def test_positive_objective_scaling_keeps_status_and_argmin(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            lp = random_tiny_lp(rng)
            scale = float(rng.integers(1, 9)) / 2.0
            scaled = LinearProgram(sense=lp.sense, objective=scale * lp.objective,
                                   lower=lp.lower, upper=lp.upper, a=lp.a,
                                   relations=lp.relations, rhs=lp.rhs)
            s1 = solve(lp)
            s2 = solve(scaled)
            assert s1.status == s2.status
            if s1.status == "optimal":
                assert np.allclose(s1.x, s2.x, atol=1e-9)
                assert s2.value == pytest.approx(scale * s1.value, abs=1e-8 * max(1.0, abs(s1.value)))


class TestBuilderAndMps:
    def test_builder_accumulates_duplicates(self):
        b = LpBuilder("min")
        x = b.add_variable(objective=1.0)
        b.add_row([(x, 1.0), (x, 1.0)], ">=", 2.0)
        lp = b.build()
        assert lp.a[0, x] == 2.0
        sol = solve(lp)
        assert sol.value == pytest.approx(1.0)

    def test_mps_roundtrippable_text(self):
        lp = _lp("max", [1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], ["<=", ">="],
                 [4.0, 0.0], lower=[0.0, -np.inf], upper=[3.0, np.inf])
        text = write_mps(lp)
        assert text.startswith("NAME")
        for section in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
            assert section in text
        # every row appears in the ROWS section
        assert text.count("R0000001") >= 2
