"""Solver-level tests: statuses, certificates, determinism, oracle agreement."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from motkit import lp as lp_module
from motkit.lp import (
    LinearProgram,
    LpBuilder,
    LpNumericalError,
    check_certificates,
    check_farkas_certificate,
    check_unbounded_ray,
    primal_residual,
    solve,
    write_mps,
)

from generators import RELATION_CHOICES, dyadic, random_tiny_lp
from oracles import (
    LoopStandardizer,
    loop_basis_duals,
    loop_check_certificates,
    loop_check_farkas_certificate,
    loop_check_unbounded_ray,
    loop_primal_residual,
    solve_by_vertex_enumeration,
)

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

    @pytest.mark.parametrize("sense, c, lower, upper, status, value", [
        # a boxed variable gives the standard form one bound row
        ("min", [2.0, -1.0], [0.5, 0.0], [np.inf, 3.0], "optimal", 2.0 * 0.5 - 3.0),
        # no standard-form row at all: shifted, mirrored and free variables
        ("min", [2.0, -1.0, 0.0], [0.5, -np.inf, -np.inf], [np.inf, 3.0, np.inf],
         "optimal", 2.0 * 0.5 - 3.0),
        ("max", [-1.0, 2.0], [0.0, -np.inf], [np.inf, np.inf], "unbounded", np.inf),
        ("min", [1.0, 1.0], [0.0, -np.inf], [np.inf, 5.0], "unbounded", -np.inf),
    ], ids=["boxed", "no-row-optimal", "no-row-free-unbounded", "no-row-mirror-unbounded"])
    def test_no_rows_bounds_only(self, sense, c, lower, upper, status, value):
        lp = _lp(sense, c, np.zeros((0, len(c))), [], [], lower=lower, upper=upper)
        sol = solve(lp)
        assert sol.status == status
        if status == "optimal":
            assert sol.value == pytest.approx(value, abs=1e-12)
            assert check_certificates(lp, sol).max_violation <= RESIDUAL_TOL
        else:
            assert sol.value == value
            assert check_unbounded_ray(lp, sol.ray) <= RESIDUAL_TOL

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


def _bits(arr):
    return arr.shape, arr.tobytes()


class TestStandardForm:
    """lp._Standardizer and lp._basis_duals against the variable-by-variable
    reference in tests/oracles.py."""

    KINDS = {(True, False): "shift", (True, True): "boxed", (False, True): "mirror",
             (False, False): "free"}

    @staticmethod
    def _lps():
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(0, 5))
            kind = rng.integers(0, 4, size=n)  # shift, boxed, mirror, free
            lo = dyadic(rng, -2, 1, size=n, scale=4)
            up = lo + dyadic(rng, 0.25, 3, size=n, scale=4)
            yield LinearProgram(
                sense=("min", "max")[int(rng.integers(0, 2))],
                objective=dyadic(rng, -2, 2, size=n, scale=4),
                lower=np.where(kind < 2, lo, -np.inf),
                upper=np.where((kind == 1) | (kind == 2), up, np.inf),
                a=dyadic(rng, -2, 2, size=(m, n), scale=4),
                relations=tuple(RELATION_CHOICES[i] for i in rng.integers(0, 3, size=m)),
                rhs=dyadic(rng, -3, 3, size=m, scale=4))
        # the second row repeats the first, so its artificial stays basic;
        # no slack column follows the structural ones, whose last costs 1
        yield _lp("min", [1.0, 2.0, -1.0], [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], ["=", "="],
                  [1.0, 2.0], lower=[0.0, 0.0, -np.inf], upper=[np.inf, np.inf, 4.0])

    def test_maps_are_bit_equal(self):
        rng = np.random.default_rng(18)
        seen = Counter()
        for lp in self._lps():
            new, ref = lp_module._Standardizer(lp), LoopStandardizer(lp)
            # the relation codes the standard form and the checkers read
            assert lp.relation_codes.tolist() == [lp_module.RELATIONS[r] for r in lp.relations]
            assert not lp.relation_codes.flags.writeable
            for attr in ("a_std", "b_std", "c_std"):
                assert _bits(getattr(new, attr)) == _bits(getattr(ref, attr)), attr
            m, n = new.a_std.shape
            z = dyadic(rng, 0, 3, size=n, scale=4)
            z[rng.random(n) < 0.3] = -0.0
            y = dyadic(rng, -2, 2, size=m, scale=4)
            for name, arg in (("x_from_z", z), ("ray_from_z", z), ("duals_from_std", y)):
                assert _bits(getattr(new, name)(arg)) == _bits(getattr(ref, name)(arg)), name
            seen.update(self.KINDS[lo, up] for lo, up in zip(np.isfinite(lp.lower),
                                                            np.isfinite(lp.upper)))
            seen.update(lp.relations + (lp.sense,))
            seen["negated row"] += int((new.sigma < 0).sum())
        assert len(seen) == 10 and min(seen.values()) >= 20, seen

    def test_solves_are_bit_equal(self, monkeypatch):
        """Each solve, rerun on the reference standard form and basis duals,
        takes the same pivots to the same bits; Farkas certificates, whose
        aggregation differs, must pass their checker."""
        recorded = []
        basis_duals = lp_module._basis_duals
        monkeypatch.setattr(lp_module, "_basis_duals",
                            lambda a, c, cols: recorded.append((a, c, cols)) or basis_duals(a, c, cols))
        statuses = Counter()
        for lp in self._lps():
            sol = solve(lp)
            with monkeypatch.context() as patch:
                patch.setattr(lp_module, "_Standardizer", LoopStandardizer)
                patch.setattr(lp_module, "_basis_duals", loop_basis_duals)
                ref = solve(lp)
            assert (sol.status, sol.iterations) == (ref.status, ref.iterations)
            assert sol.value == ref.value or np.isnan(sol.value) and np.isnan(ref.value)
            for name in ("x", "duals", "ray"):
                mine, theirs = getattr(sol, name), getattr(ref, name)
                assert (mine is None) == (theirs is None), name
                assert mine is None or _bits(mine) == _bits(theirs), name
            if sol.status == "infeasible":
                assert check_farkas_certificate(lp, sol.farkas) <= RESIDUAL_TOL
            statuses[sol.status] += 1
        assert min(statuses.values()) >= 20, statuses
        for a, c, cols in recorded:
            assert _bits(basis_duals(a, c, cols)) == _bits(loop_basis_duals(a, c, cols))
        assert any((cols >= a.shape[1]).any() for a, _, cols in recorded)


    def test_checkers_equal_the_row_loops(self):
        """The array checkers against the row-by-row ones, on each solve's
        certificate and on a copy with one multiplier (or ray entry) shifted:
        bit-equal residuals, except the duality gap, whose sum order changed."""
        rng = np.random.default_rng(19)
        same = lambda a, b: np.float64(a).tobytes() == np.float64(b).tobytes()
        seen = Counter()
        for lp in self._lps():
            sol = solve(lp)
            for shift in (0.0, 0.375):
                if sol.status == "optimal":
                    x, y = sol.x.copy(), sol.duals.copy()
                    moved = y if y.size else x
                    moved[rng.integers(moved.size)] += shift
                    assert same(primal_residual(lp, x), loop_primal_residual(lp, x))
                    moved = dataclasses.replace(sol, x=x, duals=y)
                    new, ref = check_certificates(lp, moved), loop_check_certificates(lp, moved)
                    for name in ("primal_residual", "dual_residual", "complementarity"):
                        assert same(getattr(new, name), getattr(ref, name)), name
                    assert abs(new.duality_gap - ref.duality_gap) <= 1e-12
                    seen["failed certificate"] += new.max_violation > RESIDUAL_TOL
                elif sol.status == "infeasible":
                    w, p = sol.farkas.row_multipliers.copy(), sol.farkas.lower_multipliers.copy()
                    moved = w if w.size else p
                    moved[rng.integers(moved.size)] += shift
                    cert = dataclasses.replace(sol.farkas, row_multipliers=w, lower_multipliers=p)
                    assert same(check_farkas_certificate(lp, cert),
                                loop_check_farkas_certificate(lp, cert))
                else:
                    ray = sol.ray.copy()
                    ray[rng.integers(ray.size)] += shift
                    assert same(check_unbounded_ray(lp, ray), loop_check_unbounded_ray(lp, ray))
                seen[sol.status] += 1
        assert min(seen.values()) >= 20, seen


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
        b.add_rows([0, 0], [x, x], [1.0, 1.0], ">=", 2.0)
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
