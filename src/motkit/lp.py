"""Dense linear programming with certificates.

A two-phase primal simplex on a dense tableau.  Goals, in order: correct
status reporting, independently checkable certificates, bit-level
determinism, then the cost of one pivot.

Problem form
------------
    min/max  c'x
    s.t.     a_i'x  <=|=|>=  b_i          (i = 1..m)
             lower_j <= x_j <= upper_j    (infinities allowed)

Solutions carry one dual multiplier per constraint row.  Sign convention:

    sense = "min":  y_i >= 0 on ">=" rows, y_i <= 0 on "<=" rows, free on "=",
                    reduced costs z = c - A'y satisfy z_j >= 0 at a lower
                    bound, z_j <= 0 at an upper bound, z_j = 0 in between.
    sense = "max":  all inequalities above are mirrored.

Infeasible solves carry a Farkas certificate (a contradiction-producing
nonnegative combination of the rows and bounds), which phase 1 checks before
it reports infeasibility; unbounded solves carry an improving feasible ray.
``check_certificates`` and the two ray/Farkas checkers recompute every
residual from the raw problem data.

Phase 1 reads only the rows, rhs, bounds and relations.  A start
(``phase_one``) holds its result; ``solve`` runs phase 2 from one made from
the same row arrays (another payoff shares them and the start through
``LinearProgram.with_objective``), by default from ``phase_one(lp)``, so a
warm solve is the cold one's bits.

Pivoting is largest-reduced-cost (Dantzig) with lowest-index tie breaking,
falling back to Bland's rule after a number of pivots so cycling cannot
occur; past a hard pivot cap ``LpNumericalError`` is raised rather than a
wrong status returned.  ``_budget`` gives both numbers, from the size of
the standard form, to both phases.  The ratio test reads only the eligible
rows (entry > PIVOT_TOL), so no other row can tie, even where ratios overflow.

The tableau is condensed (Chvátal's dictionary):
the nonbasic columns and the rhs, ``nonbasic`` naming the column in each
slot.  A pivot gives the entering slot to the leaving variable, updated
from its unit column as in the full tableau: 0 - column * (1/piv), 1/piv
on the pivot row.  Entries equal the full tableau's up to the sign of a
zero (einsum adds each product of the rank-1 update onto +0.0), which no
decision reads and outputs drop through ``np.maximum(., 0.0)``, ``1.0 - .``
or the basis; slot ties go to the lowest id, so pivots and output bits are
the full tableau's.  Overflow: a bound on max|entry| grows by max|column| *
max|pivot row| per pivot; only at 1e300 is the tableau scanned and the
bound measured again, so an overflow raises on the pivot a scan would.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

__all__ = [
    "LinearProgram",
    "LpBuilder",
    "LpSolution",
    "FarkasCertificate",
    "CertificateReport",
    "LpError",
    "LpNumericalError",
    "PhaseOne",
    "phase_one",
    "solve",
    "check_certificates",
    "check_farkas_certificate",
    "check_unbounded_ray",
    "write_mps",
]

# The relations a row may have, and the code of each in LinearProgram.relation_codes.
RELATIONS = {"<=": -1, "=": 0, ">=": 1}

# Pivot/zero tolerance inside the tableau.
PIVOT_TOL = 1e-9
# Residual level the engine promises on Optimal (absolute, per row).
RESIDUAL_TOL = 1e-8


class LpError(RuntimeError):
    """Raised when a solve cannot produce a trustworthy answer."""


class LpNumericalError(LpError):
    """Numeric failure (iteration blow-up, overflow); never a wrong status."""


@dataclass(frozen=True)
class LinearProgram:
    """Immutable dense LP instance."""

    sense: str
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    a: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    relation_codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        obj = np.atleast_1d(np.asarray(self.objective, dtype=float))
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        up = np.atleast_1d(np.asarray(self.upper, dtype=float))
        a = np.asarray(self.a, dtype=float)
        if a.size == 0 and a.ndim != 2:
            a = a.reshape(0, obj.size)
        if a.ndim != 2:
            raise ValueError("constraint matrix must be two-dimensional")
        rhs = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        n = obj.size
        m = a.shape[0]
        if a.shape[1] != n or lo.size != n or up.size != n:
            raise ValueError("row width or bound length does not match variable count")
        if rhs.size != m or len(self.relations) != m:
            raise ValueError("relations/rhs length does not match row count")
        try:
            codes = np.array([RELATIONS[rel] for rel in self.relations], dtype=np.int8)
        except KeyError as exc:
            raise ValueError(f"unknown relation {exc.args[0]!r}") from None
        if not np.all(np.isfinite(obj)) or not np.all(np.isfinite(a)) or not np.all(np.isfinite(rhs)):
            raise ValueError("objective, matrix and rhs must be finite")
        if np.any(np.isnan(lo)) or np.any(np.isnan(up)):
            raise ValueError("bounds must not be NaN")
        if np.any(lo > up):
            raise ValueError("lower bound exceeds upper bound")
        for arr in (obj, lo, up, a, rhs, codes):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "relation_codes", codes)

    def with_objective(self, objective) -> "LinearProgram":
        """This LP with only `objective` checked: it shares the rows and `phase_one(self)`."""
        obj = np.atleast_1d(np.asarray(objective, dtype=float))
        if obj.shape != self.objective.shape or not np.all(np.isfinite(obj)):
            raise ValueError("objective must be finite, one entry per variable")
        obj.setflags(write=False)
        new = object.__new__(LinearProgram)
        new.__dict__.update(self.__dict__, objective=obj)
        return new

    @property
    def n_variables(self) -> int:
        return self.objective.size

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


class LpBuilder:
    """Incremental LP assembly with stable variable/row ids.

    Rows are kept as (row, column, value) triplets; a cell named more than
    once sums its values in the order they were added.
    """

    def __init__(self, sense: str):
        if sense not in ("min", "max"):
            raise ValueError("sense must be 'min' or 'max'")
        self.sense = sense
        self._obj: list[float] = []
        self._lower: list[float] = []
        self._upper: list[float] = []
        self._triplets: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._relations: list[str] = []
        self._rhs: list[float] = []

    def add_variable(self, *, lower: float = 0.0, upper: float = np.inf,
                     objective: float = 0.0) -> int:
        return int(self.add_variables(1, lower=lower, upper=upper, objective=objective)[0])

    def add_variables(self, count: int, *, lower=0.0, upper=np.inf,
                      objective=0.0) -> np.ndarray:
        """`count` variables at once; each keyword is a scalar or one value
        per variable.  Returns their ids."""
        columns = [np.asarray(v, dtype=float).tolist() if np.ndim(v) else [float(v)] * count
                   for v in (objective, lower, upper)]
        if any(len(column) != count for column in columns):
            raise ValueError("each keyword needs a scalar or one value per variable")
        first = len(self._obj)
        for store, column in zip((self._obj, self._lower, self._upper), columns):
            store.extend(column)
        return np.arange(first, first + count)

    def add_rows(self, rows, columns, values, relation: str, rhs) -> np.ndarray:
        """len(rhs) rows sharing one relation, given as triplets: entry k puts
        values[k] at (rows[k], columns[k]), rows counted from the first new
        row.  Returns the new row ids."""
        if relation not in RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        rows = np.asarray(rows, dtype=np.intp)
        if rows.size and (rows.min() < 0 or rows.max() >= rhs.size):
            raise ValueError("a triplet names a row outside the rows being added")
        first = len(self._rhs)
        self._triplets.append((first + rows, np.asarray(columns, dtype=np.intp),
                               np.asarray(values, dtype=float)))
        self._relations.extend([relation] * rhs.size)
        self._rhs.extend(rhs.tolist())
        return np.arange(first, first + rhs.size)

    @property
    def n_variables(self) -> int:
        return len(self._obj)

    def build(self) -> LinearProgram:
        n = len(self._obj)
        a = np.zeros((len(self._rhs), n))
        if self._triplets:
            rows, cols, vals = (np.concatenate(part) for part in zip(*self._triplets))
            if cols.size and (cols.min() < 0 or cols.max() >= n):
                raise ValueError("a row references an unknown variable")
            np.add.at(a, (rows, cols), vals)
        return LinearProgram(
            sense=self.sense,
            objective=np.array(self._obj),
            lower=np.array(self._lower),
            upper=np.array(self._upper),
            a=a,
            relations=tuple(self._relations),
            rhs=np.array(self._rhs),
        )


@dataclass(frozen=True)
class FarkasCertificate:
    """Multipliers proving infeasibility.

    With w_i >= 0 on ">=" rows, w_i <= 0 on "<=" rows, w_i free on "=",
    p_j >= 0 on x_j >= lower_j and q_j <= 0 on x_j <= upper_j, the
    aggregation  sum_i w_i a_i + p + q  vanishes while
    sum_i w_i b_i + sum_j p_j lower_j + sum_j q_j upper_j > 0,
    which no feasible point can satisfy.
    """

    row_multipliers: np.ndarray
    lower_multipliers: np.ndarray
    upper_multipliers: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: float
    x: np.ndarray | None
    duals: np.ndarray | None
    iterations: int
    ray: np.ndarray | None = None
    farkas: FarkasCertificate | None = None


@dataclass(frozen=True)
class CertificateReport:
    """Residuals of an Optimal solution, recomputed from scratch."""

    primal_residual: float
    dual_residual: float
    complementarity: float
    duality_gap: float

    @property
    def max_violation(self) -> float:
        return float(np.max(astuple(self)))  # NaN if any residual is NaN


# ---------------------------------------------------------------------------
# standard-form conversion
# ---------------------------------------------------------------------------

class _Standardizer:
    """Rewrites an LP as  min c'z, A z = b, z >= 0, b >= 0  and remembers
    how to map points, rays and duals back to the original space.

    Variable j owns z column col[j] and reads x_j = offsets[j] + sign[j] *
    z[col[j]]: shifted by a finite lower bound (sign +1), else mirrored
    about a finite upper bound (sign -1).  A free variable (split) is
    z[col[j]] - z[col[j] + 1].  The rows are the LP's, then one "<=" row
    z[col[j]] <= upper_j - lower_j per boxed variable; slack columns follow
    the structural ones, and rows with a negative rhs are negated.  Only
    `cost` and `duals_from_std` read an objective or sense.
    """

    def __init__(self, lp: LinearProgram):
        self.lp = lp
        has_lo, has_up = np.isfinite(lp.lower), np.isfinite(lp.upper)
        self.split = ~has_lo & ~has_up
        self.sign = np.where(has_lo | self.split, 1.0, -1.0)
        width = 1 + self.split
        self.col = np.cumsum(width) - width
        self.offsets = np.where(has_lo, lp.lower, np.where(has_up, lp.upper, 0.0))

        # structural z columns: the variable of each, and its sign
        self.src = src = np.repeat(np.arange(lp.n_variables), width)
        self.zsign = zsign = self.sign[src]
        zsign[self.col[self.split] + 1] = -1.0
        boxed = np.flatnonzero(has_lo & has_up)
        # a "<=" row (and each bound row) gets slack +1, a ">=" row -1
        slack = np.concatenate([-lp.relation_codes, np.ones(boxed.size)])
        slack_rows = np.flatnonzero(slack)
        m_orig, n_struct = lp.n_rows, src.size

        # gathered before a_std is allocated: the other order fragments the
        # malloc heap, and repeated `counterexample --depth 10` runs peaked
        # 3.6 MB higher
        body = lp.a[:, src] * zsign
        a_std = np.zeros((slack.size, n_struct + slack_rows.size))
        a_std[:m_orig, :n_struct] = body
        a_std[m_orig + np.arange(boxed.size), self.col[boxed]] = 1.0
        a_std[slack_rows, n_struct + np.arange(slack_rows.size)] = slack[slack_rows]
        rhs = np.concatenate([lp.rhs - lp.a @ self.offsets,
                              lp.upper[boxed] - lp.lower[boxed]])

        # nonnegative rhs
        self.sigma = np.where(rhs < 0, -1.0, 1.0)
        a_std *= self.sigma[:, None]

        self.m_orig = m_orig
        self.a_std = a_std
        self.b_std = rhs * self.sigma

    def cost(self, lp: LinearProgram) -> np.ndarray:
        """c of min c'z for the objective and sense of `lp`, an LP on these rows."""
        return np.concatenate([(-1.0 if lp.sense == "max" else 1.0) * lp.objective[self.src]
                               * self.zsign, np.zeros(self.a_std.shape[1] - self.src.size)])

    def _unsplit(self, v: np.ndarray, z: np.ndarray) -> np.ndarray:
        """v with each free variable's entry set to its positive part minus
        its negative part in z."""
        zp = self.col[self.split]
        v[self.split] = z[zp] - z[zp + 1]
        return v

    def x_from_z(self, z: np.ndarray) -> np.ndarray:
        return self._unsplit(self.offsets + self.sign * z[self.col], z)

    def ray_from_z(self, dz: np.ndarray) -> np.ndarray:
        return self._unsplit(self.sign * dz[self.col], dz)

    def duals_from_std(self, y_std: np.ndarray, sense: str) -> np.ndarray:
        # undo row negation, then undo the sense flip
        y = (self.sigma * y_std)[: self.m_orig]
        return (-1.0 if sense == "max" else 1.0) * y

    def farkas_from_std(self, y_std: np.ndarray) -> FarkasCertificate:
        lp = self.lp
        yhat = self.sigma * y_std
        w = yhat[: self.m_orig]
        wa = w @ lp.a
        has_lo = np.isfinite(lp.lower)
        # fold bound-row multipliers and column slacks into bound multipliers
        q = np.zeros(lp.n_variables)
        q[has_lo & np.isfinite(lp.upper)] = np.minimum(yhat[self.m_orig:], 0.0)
        mirror = self.sign < 0
        q[mirror] = np.minimum(-wa[mirror], 0.0)
        p = np.where(has_lo, np.maximum(-(wa + q), 0.0), 0.0)
        scale = np.abs(w).sum() + np.abs(p).sum() + np.abs(q).sum()
        if scale > 0:
            w, p, q = w / scale, p / scale, q / scale
        return FarkasCertificate(w, p, q)


# ---------------------------------------------------------------------------
# simplex core
# ---------------------------------------------------------------------------

def _pivot(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
           row: int, slot: int, column: np.ndarray) -> tuple[float, float]:
    """Pivot on (row, slot): the variable in `slot` enters the basis at `row`
    and the leaving one takes the slot, updated from its unit column e_row.
    `column` is a copy of the slot's, cost row included.  Returns
    max|column| * max|pivot row| and max|pivot row|."""
    tableau[:, slot] = 0.0
    tableau[row, slot] = 1.0
    piv_row = tableau[row] / column[row]
    # max|.| by argmax and argmin, cheaper per call than a max; both find a NaN
    row_max = float(max(piv_row[piv_row.argmax()], -piv_row[piv_row.argmin()]))
    growth = float(max(column[column.argmax()], -column[column.argmin()])) * row_max
    tableau -= np.einsum("i,j->ij", column, piv_row)
    tableau[row] = piv_row
    basis[row], nonbasic[slot] = nonbasic[slot], basis[row]
    return growth, row_max


def _budget(m: int, n: int) -> tuple[int, int]:
    """The pivots after which Bland's rule replaces Dantzig's, and the pivot
    cap, of a standard form with m rows and n columns."""
    return 1000 + 20 * (m + n), 20000 + 500 * (m + n)


def _run_simplex(tableau: np.ndarray, basis: np.ndarray, nonbasic: np.ndarray,
                 iteration_budget: list[int], bland_after: int,
                 enter_below: int = np.iinfo(np.intp).max) -> tuple[str, int | None]:
    """Iterate to optimality, entering only ids below `enter_below`; returns
    ("optimal", None) or ("unbounded", entering slot)."""
    m = tableau.shape[0] - 1
    costrow, rhs = tableau[-1, :-1], tableau[:m, -1]
    # never below max|entry|, since rounding is monotone; only a bound that
    # reaches 1e300 (or inf: Python floats overflow silently) scans the tableau
    bound = float(np.abs(tableau).max())
    masked = False  # until a variable that may not enter leaves the basis
    while costrow.size:
        bland = iteration_budget[0] >= bland_after
        reduced = np.where(nonbasic < enter_below, costrow, np.inf) if masked else costrow
        # Bland: the lowest id with a negative reduced cost; Dantzig: the
        # most negative, exact ties to the lowest id
        slot = int(np.where(reduced < -PIVOT_TOL, nonbasic, enter_below).argmin()
                   if bland else reduced.argmin())
        if not reduced[slot] < -PIVOT_TOL:
            return "optimal", None
        if not bland and reduced[::-1].argmin() != reduced.size - 1 - slot:
            ties = (reduced == reduced[slot]).nonzero()[0]
            slot = int(ties[nonbasic[ties].argmin()])
        column = tableau[:, slot].copy()
        eligible = (column[:m] > PIVOT_TOL).nonzero()[0]
        if not eligible.size:
            return "unbounded", slot
        ratios = rhs[eligible] / column[eligible]
        ties = eligible[ratios <= ratios[ratios.argmin()] + 1e-12]
        if ties.size > 1 and not bland:
            # Dantzig tie break: the largest pivot elements first
            piv = column[ties]
            ties = ties[piv >= piv.max() - 1e-12]
        # then the smallest basic-variable index (Bland's tie break)
        row = int(ties[basis[ties].argmin()])
        masked = masked or basis[row] >= enter_below
        growth, row_max = _pivot(tableau, basis, nonbasic, row, slot, column)
        iteration_budget[0] += 1
        if iteration_budget[0] >= iteration_budget[1]:
            raise LpNumericalError("simplex iteration limit exceeded")
        bound = max(bound + growth, row_max)
        if not bound < 1e300:  # also true for NaN
            if not np.isfinite(tableau).all():
                raise LpNumericalError("tableau overflow during pivoting")
            bound = float(np.abs(tableau).max())
    return "optimal", None


@dataclass(frozen=True, eq=False)
class PhaseOne:
    """A start for `solve`: the standard form of an LP's rows, phase 1's
    condensed tableau, basis and nonbasic after the artificial drive-out
    (read-only) and its pivots; if infeasible, Farkas."""

    std: _Standardizer
    tableau: np.ndarray
    basis: np.ndarray
    nonbasic: np.ndarray
    pivots: int
    infeasible: LpSolution | None


def phase_one(lp: LinearProgram) -> PhaseOne:
    """Phase 1 of `solve` on the rows of `lp`; its objective is not read."""
    std = _Standardizer(lp)
    a, b = std.a_std, std.b_std
    m, n = a.shape
    bland_after, cap = _budget(m, n)
    budget = [0, cap]

    # Artificial basis (ids n..n+m-1), minimize total infeasibility.
    tableau = np.empty((m + 1, n + 1))
    tableau[:m, :n] = a
    tableau[:m, -1] = b
    tableau[-1, :n] = -a.sum(axis=0)
    tableau[-1, -1] = -b.sum()
    basis = np.arange(n, n + m)
    nonbasic = np.arange(n)

    if _run_simplex(tableau, basis, nonbasic, budget, bland_after)[0] != "optimal":
        raise LpNumericalError("phase 1 terminated unbounded")
    infeasible = None
    feas_tol = PIVOT_TOL * (1.0 + np.abs(b).max(initial=0.0)) * 10.0
    if -tableau[-1, -1] > feas_tol:  # the infeasibility left at the phase-1 optimum
        # the cost row holds reduced costs; artificial i has cost 1 and
        # column e_i, so r_i = 1 - y_i and the phase-1 duals are 1 - r_i
        y = np.ones(m)  # r_i = 0 while artificial i is basic
        art = nonbasic >= n
        y[nonbasic[art] - n] = 1.0 - tableau[-1, :-1][art]
        cert = std.farkas_from_std(y)
        if not check_farkas_certificate(lp, cert) <= RESIDUAL_TOL:
            raise LpNumericalError("phase 1 infeasible with no checked Farkas certificate")
        infeasible = LpSolution("infeasible", float("nan"), None, None, budget[0], farkas=cert)
    else:
        # Drive leftover artificials out of the basis (degenerate pivots): the
        # largest structural entry of the row, the lowest id among equals.
        for i in np.flatnonzero(basis >= n):
            size = np.where(nonbasic < n, np.abs(tableau[i, :-1]), 0.0)
            if size.max(initial=0.0) > 1e-7:
                ties = (size == size.max()).nonzero()[0]
                slot = int(ties[nonbasic[ties].argmin()])
                _pivot(tableau, basis, nonbasic, i, slot, tableau[:, slot].copy())
            # else: redundant row, its artificial stays basic at level zero
    for arr in (tableau, basis, nonbasic):
        arr.setflags(write=False)
    return PhaseOne(std, tableau, basis, nonbasic, budget[0], infeasible)


def solve(lp: LinearProgram, *, start: PhaseOne | None = None) -> LpSolution:
    """Solve an LP; status is one of Optimal / Infeasible / Unbounded.

    Phase 2 runs from `start`, by default `phase_one(lp)`; a start made from
    other row arrays raises ValueError.  `_budget` gives the pivots of both
    phases together, after which Bland's rule takes over, and their cap.
    Deterministic: identical inputs take identical pivot sequences.
    """
    if start is None:
        start = phase_one(lp)
    elif any(getattr(start.std.lp, name) is not getattr(lp, name)
             for name in ("a", "rhs", "lower", "upper", "relations")):
        raise ValueError("start made from other rows")
    if start.infeasible is not None:
        return start.infeasible
    std = start.std
    a, c = std.a_std, std.cost(lp)
    m, n = a.shape
    bland_after, cap = _budget(m, n)
    budget = [start.pivots, cap]

    # Phase 2 keeps the nonbasic structural columns; an artificial left
    # basic may leave the basis, then never enter it again.
    keep = np.flatnonzero(start.nonbasic < n)
    tableau = start.tableau.take(np.append(keep, -1), axis=1)  # a C-order copy
    basis, nonbasic = start.basis.copy(), start.nonbasic[keep]
    del start  # a cold start's phase-1 tableau is freed before phase 2 pivots
    tableau[-1] = np.append(c[nonbasic], 0.0)
    basic_cost = np.append(c, np.zeros(m))[basis]
    for i in np.flatnonzero(basic_cost):
        tableau[-1] -= basic_cost[i] * tableau[i]

    status, entering = _run_simplex(tableau, basis, nonbasic, budget, bland_after, n)

    if status == "unbounded":
        dz = np.zeros(n + m)
        dz[nonbasic[entering]] = 1.0
        dz[basis] = -tableau[:m, entering]
        ray = std.ray_from_z(np.maximum(dz[:n], 0.0))
        norm = np.abs(ray).max()
        if norm <= 0:  # pragma: no cover - entering column maps to a real var
            raise LpNumericalError("degenerate unbounded ray")
        ray = ray / norm
        value = -np.inf if lp.sense == "min" else np.inf
        return LpSolution("unbounded", value, None, None, budget[0], ray=ray)

    z = np.zeros(n + m)
    z[basis] = tableau[:m, -1]
    z = np.maximum(z, 0.0)
    x = std.x_from_z(z[:n])
    x = np.clip(x, lp.lower, lp.upper)
    y = std.duals_from_std(_basis_duals(a, c, basis), lp.sense)
    return LpSolution("optimal", float(lp.objective @ x), x, y, budget[0])


def _basis_duals(a: np.ndarray, c: np.ndarray, basis_cols: np.ndarray) -> np.ndarray:
    """Solve B'y = c_B; artificial columns are unit vectors with zero cost."""
    m = a.shape[0]
    bmat = np.concatenate([a, np.eye(m)], axis=1)[:, basis_cols]
    try:
        return np.linalg.solve(bmat.T, np.append(c, np.zeros(m))[basis_cols])
    except np.linalg.LinAlgError as exc:
        raise LpNumericalError("singular basis during dual recovery") from exc


# ---------------------------------------------------------------------------
# certificate checking (independent of the solver internals)
# ---------------------------------------------------------------------------

def _relation_violation(lp: LinearProgram, gap: np.ndarray) -> np.ndarray:
    """Per row, how far `gap` (activity minus rhs) breaks the relation: its
    excess on "<=" rows, its shortfall on ">=" rows, its size on "=" rows."""
    code = lp.relation_codes
    return np.where(code < 0, gap, np.where(code > 0, -gap, np.abs(gap)))


def _sign_violation(lp: LinearProgram, y: np.ndarray) -> np.ndarray:
    """Per row, how far the multiplier y (min convention) has the wrong sign:
    y >= 0 on ">=" rows, y <= 0 on "<=" rows, free on "=" rows."""
    code = lp.relation_codes
    return np.where(code > 0, -y, np.where(code < 0, y, 0.0))


def _worst(*violations) -> float:
    """The largest entry of the violation arrays: 0.0 if none is positive, NaN if one is."""
    return float(np.concatenate(violations).max(initial=0.0)) + 0.0  # -0.0 reads 0.0


def primal_residual(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest violation of rows and bounds at x (absolute)."""
    return _worst(_relation_violation(lp, lp.a @ x - lp.rhs),
                  np.where(np.isfinite(lp.lower), lp.lower - x, -np.inf),
                  np.where(np.isfinite(lp.upper), x - lp.upper, -np.inf))


def check_certificates(lp: LinearProgram, sol: LpSolution) -> CertificateReport:
    """Recompute all four optimality residuals from scratch."""
    if sol.status != "optimal":
        raise ValueError("check_certificates expects an Optimal solution")
    x, y = sol.x, sol.duals
    sgn = 1.0 if lp.sense == "min" else -1.0
    z = lp.objective - lp.a.T @ y
    zs = sgn * z  # in min convention after sign normalization
    at_lo = np.isfinite(lp.lower) & (x <= lp.lower + 1e-7)
    at_up = np.isfinite(lp.upper) & (x >= lp.upper - 1e-7)
    reduced = np.where(at_lo & at_up, 0.0,
                       np.where(at_lo, -zs, np.where(at_up, zs, np.abs(zs))))
    d_res = _worst(_sign_violation(lp, sgn * y), reduced)
    comp = _worst(np.abs(y * (lp.a @ x - lp.rhs)))
    lo_term = (zs > RESIDUAL_TOL) & np.isfinite(lp.lower)
    up_term = (zs < -RESIDUAL_TOL) & np.isfinite(lp.upper)
    dual_obj = float(y @ lp.rhs) + float(z[lo_term] @ lp.lower[lo_term]
                                         + z[up_term] @ lp.upper[up_term])
    gap = abs(sol.value - dual_obj) / max(1.0, abs(sol.value))
    return CertificateReport(primal_residual(lp, x), d_res, comp, gap)


def check_farkas_certificate(lp: LinearProgram, cert: FarkasCertificate) -> float:
    """Residual of an infeasibility certificate; <= RESIDUAL_TOL means valid.

    Returns max(sign violations, |aggregated row|_inf, RESIDUAL_TOL - margin) so a
    valid, strictly separating certificate scores 0.
    """
    w, p, q = cert.row_multipliers, cert.lower_multipliers, cert.upper_multipliers
    lo_mask, up_mask = np.isfinite(lp.lower), np.isfinite(lp.upper)
    agg = lp.a.T @ w + p + q
    margin = float(w @ lp.rhs)
    margin += float((p[lo_mask] * lp.lower[lo_mask]).sum())
    margin += float((q[up_mask] * lp.upper[up_mask]).sum())
    # multipliers on infinite bounds must vanish
    return _worst(_sign_violation(lp, w), -p, q, np.abs(np.where(lo_mask, 0.0, p)),
                  np.abs(np.where(up_mask, 0.0, q)), np.abs(agg), [RESIDUAL_TOL - margin])


def check_unbounded_ray(lp: LinearProgram, ray: np.ndarray) -> float:
    """Residual of an improving feasible ray; <= RESIDUAL_TOL means valid."""
    drift = float(lp.objective @ ray)
    improving = -drift if lp.sense == "min" else drift
    return _worst(_relation_violation(lp, lp.a @ ray),
                  np.where(np.isfinite(lp.lower), -ray, -np.inf),
                  np.where(np.isfinite(lp.upper), ray, -np.inf), [RESIDUAL_TOL - improving])


# ---------------------------------------------------------------------------
# MPS export
# ---------------------------------------------------------------------------

def _mps_name(prefix: str, i: int) -> str:
    return f"{prefix}{i + 1:07d}"


def write_mps(lp: LinearProgram) -> str:
    """Render the LP in fixed-width MPS for external cross-checking."""
    rows = ["NAME          MOTKITLP"]
    if lp.sense == "max":
        rows.append("OBJSENSE")
        rows.append("    MAX")
    rows.append("ROWS")
    rows.append(" N  OBJ")
    rel_code = {"<=": "L", ">=": "G", "=": "E"}
    rnames = [_mps_name("R", i) for i in range(lp.n_rows)]
    cnames = [_mps_name("C", j) for j in range(lp.n_variables)]
    for i, rel in enumerate(lp.relations):
        rows.append(f" {rel_code[rel]}  {rnames[i]}")
    rows.append("COLUMNS")

    def entry(col: str, row: str, val: float) -> str:
        return f"    {col:<8}  {row:<8}  {val:<12.9G}"

    for j in range(lp.n_variables):
        if lp.objective[j] != 0.0:
            rows.append(entry(cnames[j], "OBJ", lp.objective[j]))
        for i in np.flatnonzero(lp.a[:, j]):
            rows.append(entry(cnames[j], rnames[i], lp.a[i, j]))
    rows.append("RHS")
    for i in range(lp.n_rows):
        if lp.rhs[i] != 0.0:
            rows.append(entry("RHS", rnames[i], lp.rhs[i]))
    rows.append("BOUNDS")
    for j in range(lp.n_variables):
        lo, up = lp.lower[j], lp.upper[j]
        if lo == 0.0 and not np.isfinite(up):
            continue
        if not np.isfinite(lo) and not np.isfinite(up):
            rows.append(f" FR BND       {cnames[j]}")
            continue
        if np.isfinite(lo):
            rows.append(f" LO BND       {cnames[j]:<8}  {lo:<12.9G}")
        else:
            rows.append(f" MI BND       {cnames[j]}")
        if np.isfinite(up):
            rows.append(f" UP BND       {cnames[j]:<8}  {up:<12.9G}")
    rows.append("ENDATA")
    return "\n".join(rows) + "\n"
