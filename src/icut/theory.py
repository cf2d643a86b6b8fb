"""Numeric checks of the selection theory.

Covers the closed-form propagation of label-error rates through the
agreement filter, its monotone corollary, unit-ball volumes, the
dimension feasibility window, and two Monte Carlo validators (the
propagation formula and the sorted-density factor d!).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Tuple

import numpy as np

from .core import as_int, seeded_rng

WINDOW_MODES = ("plain", "orthogonal", "permutation")


def subset_error_rates(alpha_noisy: float, gamma_noisy: float,
                       lambda0: float, lambda1: float) -> Tuple[float, float]:
    """Label-error rates after keeping samples whose neighbors agree.

    alpha is the fraction of label-1 samples that are truly 0 (gamma the
    mirror image); lambda0/lambda1 are the class-conditional accuracies
    of the neighborhood vote.  Filtering on agreement rescales each rate
    by Bayes' rule.
    """
    for name, v in (("alpha_noisy", alpha_noisy), ("gamma_noisy", gamma_noisy),
                    ("lambda0", lambda0), ("lambda1", lambda1)):
        if not (0.0 <= v <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    den_a = alpha_noisy * (1.0 - lambda0) + (1.0 - alpha_noisy) * lambda1
    den_g = gamma_noisy * (1.0 - lambda1) + (1.0 - gamma_noisy) * lambda0
    if den_a == 0.0 or den_g == 0.0:
        raise ValueError("degenerate channel")
    alpha_s = alpha_noisy * (1.0 - lambda0) / den_a
    gamma_s = gamma_noisy * (1.0 - lambda1) / den_g
    return alpha_s, gamma_s


@dataclass(frozen=True)
class CorollaryReport:
    alpha_s: float
    gamma_s: float
    alpha_margin: float      # alpha - alpha_s
    gamma_margin: float
    precondition_met: bool   # lambda0 + lambda1 >= 1
    holds: bool              # both margins >= 0


def check_corollary(alpha: float, gamma: float,
                    lambda0: float, lambda1: float) -> CorollaryReport:
    """Does filtering improve both error rates?  Guaranteed iff l0+l1 >= 1."""
    alpha_s, gamma_s = subset_error_rates(alpha, gamma, lambda0, lambda1)
    am = alpha - alpha_s
    gm = gamma - gamma_s
    tol = 1e-12
    return CorollaryReport(
        alpha_s=alpha_s,
        gamma_s=gamma_s,
        alpha_margin=am,
        gamma_margin=gm,
        precondition_met=lambda0 + lambda1 >= 1.0 - tol,
        holds=(am >= -tol and gm >= -tol),
    )


def unit_ball_log_volume(d: int) -> Tuple[float, Optional[float]]:
    """(ln V_d, V_d) for the d-dimensional unit ball; V_d is None once
    exp() can no longer represent it."""
    if d < 1:
        raise ValueError("d must be at least 1")
    log_v = 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1.0)
    v = math.exp(log_v)     # V_d peaks near 5.26 at d = 5, so exp can only underflow
    return log_v, (v if v > 0.0 else None)


@dataclass(frozen=True)
class WindowParams:
    n: int = 10**6
    nu: float = 0.05
    rho: float = 1.0
    delta: float = 0.1    # minimum distance between corrupted pairs
    omega: float = 1.0    # support-regularity constant
    p0: float = 1.0       # density lower bound
    kl1: float = 1.0      # lower constant at d = 1; grows linearly with d
    mode: str = "plain"

    def __post_init__(self):
        if self.mode not in WINDOW_MODES:
            raise ValueError(f"unknown window mode {self.mode!r}")
        if not (0.0 < self.nu < 1.0):
            raise ValueError("nu must lie in (0, 1)")
        if not (0.0 < self.rho <= 1.0):
            raise ValueError("rho must lie in (0, 1]")
        for name in ("n", "delta", "omega", "p0", "kl1"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class FeasibilityReport:
    rows: tuple           # (d, logL, logU, feasible) per dimension
    d0: Optional[int]     # smallest infeasible d in range, if any
    mode: str
    unique_transition: bool


def _log_window(params: WindowParams, d: int) -> Tuple[float, float]:
    log_l = (math.log(params.kl1) + math.log(d)
             + 2.0 * math.log(math.log(1.0 / params.nu))
             + (params.rho / (params.rho + d)) * math.log(params.n))
    log_u = (math.log(params.omega) + unit_ball_log_volume(d)[0]
             + math.log(params.p0) + d * math.log(params.delta)
             + math.log(params.n))
    return log_l, log_u


def feasibility_window(params: WindowParams, d_range: Sequence[int]) -> FeasibilityReport:
    """Lower requirement L(d) vs upper budget U(d) per dimension.

    plain: both move with d (U picks up the ball volume and Delta^d).
    orthogonal: the representation maps to the line, so both freeze at
    their d = 1 values.  permutation: sorting folds d! equivalent
    orderings onto one region, multiplying U by d!.
    """
    dims = [as_int(d, "d") for d in d_range]
    if len(dims) == 0:
        raise ValueError("empty d_range")
    if min(dims) < 1:
        raise ValueError("d must be at least 1")
    rows = []
    for d in dims:
        if params.mode == "orthogonal":
            log_l, log_u = _log_window(params, 1)
        else:
            log_l, log_u = _log_window(params, d)
            if params.mode == "permutation":
                log_u += math.lgamma(d + 1.0)
        rows.append((d, log_l, log_u, log_l <= log_u))
    flags = [r[3] for r in rows]
    d0 = next((r[0] for r in rows if not r[3]), None)
    # unique transition == flags are feasible then infeasible, no flip back
    switches = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
    unique = switches <= 1 and (switches == 0 or (flags[0] and not flags[-1]))
    return FeasibilityReport(rows=tuple(rows), d0=d0, mode=params.mode,
                             unique_transition=unique)


@dataclass(frozen=True)
class Prop1Report:
    alpha_s_pred: float
    gamma_s_pred: float
    alpha_s_emp: float
    gamma_s_emp: float
    alpha_cell: int       # samples with (noisy=1, vote=1)
    gamma_cell: int
    alpha_sigma: float
    gamma_sigma: float

    @property
    def alpha_dev(self) -> float:
        return abs(self.alpha_s_emp - self.alpha_s_pred)

    @property
    def gamma_dev(self) -> float:
        return abs(self.gamma_s_emp - self.gamma_s_pred)

    def within(self, n_sigma: float = 3.0) -> bool:
        return (self.alpha_dev <= n_sigma * self.alpha_sigma + 1e-15
                and self.gamma_dev <= n_sigma * self.gamma_sigma + 1e-15)


def _prop1_trials(trials) -> int:
    trials = as_int(trials, "trials")
    if trials < 10**4:
        raise ValueError("trials must be at least 10^4")
    return trials


def validate_prop1_monte_carlo(alpha: float, gamma: float,
                               lambda0: float, lambda1: float,
                               trials: int = 10**6, seed: int = 0) -> Prop1Report:
    """Simulate the two conditionally independent label channels.

    alpha/gamma are posterior rates, P(y=0 | noisy=1) and P(y=1 | noisy=0)
    under a balanced prior; the forward flip probabilities that realize
    them are a = alpha(1-2*gamma)/(1-alpha-gamma) and the mirror image.
    Requires alpha + gamma < 1 so those channels exist.
    """
    trials = _prop1_trials(trials)
    if alpha + gamma >= 1.0:
        raise ValueError("alpha + gamma must be below 1")
    denom = 1.0 - alpha - gamma
    a = alpha * (1.0 - 2.0 * gamma) / denom    # P(noisy=1 | y=0)
    b = gamma * (1.0 - 2.0 * alpha) / denom    # P(noisy=0 | y=1)
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("alpha/gamma pair has no balanced-prior channel")
    rng = seeded_rng(seed, 31)
    y = rng.random(trials) < 0.5
    flip = rng.random(trials)
    noisy = np.where(y, flip >= b, flip < a)
    vote_ok = rng.random(trials) < np.where(y, lambda1, lambda0)
    vote = np.where(vote_ok, y, ~y)
    pred_a, pred_g = subset_error_rates(alpha, gamma, lambda0, lambda1)
    cells = []
    for label_val, pred in ((True, pred_a), (False, pred_g)):
        cell = (noisy == label_val) & (vote == label_val)
        count = int(cell.sum())
        if count == 0:
            raise ValueError("insufficient trials")
        wrong = int((y[cell] != label_val).sum())
        emp = wrong / count
        sigma = math.sqrt(max(pred * (1.0 - pred), emp * (1.0 - emp)) / count)
        cells.append((emp, count, sigma))
    return Prop1Report(
        alpha_s_pred=pred_a, gamma_s_pred=pred_g,
        alpha_s_emp=cells[0][0], gamma_s_emp=cells[1][0],
        alpha_cell=cells[0][1], gamma_cell=cells[1][1],
        alpha_sigma=cells[0][2], gamma_sigma=cells[1][2],
    )


@dataclass(frozen=True)
class SortedDensityReport:
    d: int
    bins: int
    trials: int
    factor: float            # expected density multiplier, d!
    cells_tested: int
    cells_passed: int
    max_abs_z: float

    @property
    def all_passed(self) -> bool:
        return self.cells_passed == self.cells_tested


def check_sorted_density(d: int, trials: int = 10**6, bins: int = 8,
                         seed: int = 0) -> SortedDensityReport:
    """Histogram sorted uniform draws against the flat d!-density oracle.

    Only cells strictly inside the ordered region are tested (cells the
    diagonal cuts through are skipped); each tested cell must sit within
    4 binomial sigmas of d! times the uniform mass.
    """
    d, trials, bins = as_int(d, "d"), as_int(trials, "trials"), as_int(bins, "bins")
    if d not in (1, 2, 3):
        raise ValueError("d must be 1, 2, or 3")
    if trials < 10**5:
        raise ValueError("trials must be at least 10^5")
    if bins < max(2, d):
        raise ValueError(f"bins must be positive and at least max(2, d) = {max(2, d)}: "
                         "coarser bins leave no cell to test")
    factor = float(math.factorial(d))
    p_cell = factor / bins**d
    if trials * p_cell < 25.0:
        raise ValueError("bins too fine for trials")
    rng = seeded_rng(seed, 37)
    x = np.sort(rng.random((trials, d)), axis=1)
    idx = np.minimum((x * bins).astype(np.int64), bins - 1)
    cells = np.array(list(combinations(range(bins), d)))   # strictly increasing => interior
    keys = np.ravel_multi_index(np.concatenate([idx, cells]).T, (bins,) * d)
    counts = np.bincount(keys[:trials], minlength=bins**d)[keys[trials:]]
    z = np.abs(counts - trials * p_cell) / math.sqrt(trials * p_cell * (1.0 - p_cell))
    return SortedDensityReport(d=d, bins=bins, trials=trials, factor=factor,
                               cells_tested=len(cells), cells_passed=int(np.sum(z <= 4.0)),
                               max_abs_z=float(z.max()))


def theory_checks(trials: int = 10**6, tuples: int = 20, seed: int = 0):
    """An iterator of ``(name, passed, detail)``, one per Monte Carlo and closed-form check.

    The propagation formula at the worked point and on ``tuples`` random
    tuples, the corollary on its boundary and over a grid, and the sorted
    density factor at d = 2 and 3.  Bad counts or seeds raise here, before any check runs.
    """
    tuples = as_int(tuples, "tuples")
    if tuples < 1:
        raise ValueError("tuples must be positive")
    return _run_checks(_prop1_trials(trials), tuples, as_int(seed, "seed"))


def _run_checks(trials: int, tuples: int, seed: int):
    report = validate_prop1_monte_carlo(0.45, 0.45, 0.74, 0.74, trials=trials, seed=seed)
    yield ("propagation worked point 0.45/0.45/0.74/0.74", report.within(3.0),
           f"predicted {report.alpha_s_pred:.4f} empirical {report.alpha_s_emp:.4f}")
    rng = seeded_rng(seed, 41)
    ok_all = True
    for i in range(tuples):
        alpha, gamma = rng.uniform(0.05, 0.45, size=2)
        lam0 = rng.uniform(0.55, 0.95)
        lam1 = rng.uniform(max(0.55, 1.0 - lam0), 0.95)
        rep = validate_prop1_monte_carlo(alpha, gamma, lam0, lam1,
                                         trials=trials, seed=seed + i + 1)
        if not rep.within(3.0):
            ok_all = False
    yield f"propagation on {tuples} random tuples", ok_all, ""
    boundary = check_corollary(0.3, 0.2, 0.6, 0.4)
    yield ("corollary boundary lambda0+lambda1=1",
           boundary.precondition_met and abs(boundary.alpha_margin) <= 1e-9, "")
    grid_ok = True
    for lam0 in (0.5, 0.7, 0.9):
        for lam1 in (1.0 - lam0 + 0.05, 0.95):
            for alpha in (0.1, 0.3, 0.45):
                rep = check_corollary(alpha, alpha, lam0, lam1)
                grid_ok = grid_ok and rep.holds
    yield "corollary improvement when lambda0+lambda1>=1", grid_ok, ""
    for d in (2, 3):
        rep = check_sorted_density(d, trials=max(trials, 10**5), seed=seed)
        yield (f"sorted density factor {rep.factor:.0f} at d={d}", rep.all_passed,
               f"max |z| {rep.max_abs_z:.2f} over {rep.cells_tested} cells")
