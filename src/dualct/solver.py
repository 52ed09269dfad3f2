"""Safeguarded alternating minimization with smoothing continuation.

Each iteration proposes a residual two-block candidate step (gradient step
on the data term, then a gradient step on the smoothed regularizer of each
block, z first). The candidate is accepted when it passes the energy
descent conditions; otherwise a backtracked block-coordinate-descent step
guarantees sufficient decrease. When solving to a tolerance, the candidate
starts from a FISTA-extrapolated point, while the descent conditions and
the safeguard still refer to the current iterate. The smoothing half-width
shrinks geometrically once the smoothed gradient is small enough at the
current level, driving the iterates toward stationarity of the nonsmooth
model.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .errors import (ConfigError, NumericalError, SolverError, config_float, config_int,
                     read_fields)
from .objective import (DualState, LipschitzConstants, Point, ProblemSpec,
                        _reg_grad, evaluate, grad_norm, lipschitz_constants)

BRANCH_EDC = "EDC"
BRANCH_BCD = "BCD"


@dataclass(frozen=True)
class SolverParams:
    """All scalar knobs of the solver, checked on construction; every knob
    is stored as read by ``config_int`` or ``config_float``.

    Candidate step sizes left as None are derived from Lipschitz
    estimates (1/L of the block Hessian for the data steps, the
    proximal-collapsed value for the regularizer steps) and refreshed
    after every smoothing reduction.
    """

    alpha: float | None = None
    beta: float | None = None
    alpha_hat: float | None = None
    beta_hat: float | None = None
    bar_alpha0: float = 1.0
    bar_beta0: float = 1.0
    rho: float = 0.5
    delta: float = 1e-4
    eta: float = 1e-4
    eps0: float = 0.1
    gamma: float = 0.5
    sigma: float = 100.0
    eps_tol: float = 1e-4
    max_iters: int = 1000
    max_backtracks: int = 60

    def __post_init__(self):
        # a step left at its default None stays None; every other knob is read
        read_fields(self, **{f.name: config_int if f.type == "int" else config_float
                             for f in fields(self)
                             if getattr(self, f.name) is not None or f.default is not None})
        for name in ("alpha", "beta", "alpha_hat", "beta_hat"):
            v = getattr(self, name)
            if v is not None and not v > 0:
                raise ConfigError(f"{name} must be positive when given")
        if not (self.bar_alpha0 > 0 and self.bar_beta0 > 0):
            raise ConfigError("safeguard initial steps must be positive")
        if not 0 < self.rho < 1:
            raise ConfigError("rho must lie in (0, 1)")
        if not 0 < self.delta < 1:
            raise ConfigError("delta must lie in (0, 1)")
        if not self.eta > 0:
            raise ConfigError("eta must be positive")
        if not self.eps0 > 0:
            raise ConfigError("eps0 must be positive")
        if not 0 < self.gamma < 1:
            raise ConfigError("gamma must lie in (0, 1)")
        if not self.sigma > 0:
            raise ConfigError("sigma must be positive")
        if not self.eps_tol >= 0:
            raise ConfigError("eps_tol must be nonnegative")
        if self.max_iters < 0 or self.max_backtracks < 1:
            raise ConfigError("iteration counts out of range")


@dataclass
class IterateRecord:
    k: int
    eps: float
    phi_before: float
    phi_after: float
    grad_norm: float
    branch: str
    backtracks: int
    alpha_used: float
    beta_used: float
    eps_reduced: bool


CSV_COLUMNS = tuple(f.name for f in fields(IterateRecord))


@dataclass
class IterateLog:
    records: list[IterateRecord] = field(default_factory=list)

    def append(self, rec: IterateRecord) -> None:
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    def max_backtracks(self) -> int:
        return max((r.backtracks for r in self.records), default=0)

    def n_eps_reductions(self) -> int:
        return sum(r.eps_reduced for r in self.records)

    def write_csv(self, path) -> None:
        """One row per record; booleans are written as 0/1."""
        with open(str(path), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows([int(v) if isinstance(v, bool) else v for v in astuple(r)]
                             for r in self.records)

    def write_json(self, path) -> None:
        with open(str(path), "w") as fh:
            json.dump({"columns": list(CSV_COLUMNS),
                       "iterations": [asdict(r) for r in self.records]}, fh, indent=2)
            fh.write("\n")


@dataclass
class StepSizes:
    alpha: float
    beta: float
    alpha_hat: float
    beta_hat: float


def resolve_steps(lip: LipschitzConstants, params: SolverParams,
                  eps: float) -> StepSizes:
    """Fill unspecified candidate steps from the Lipschitz estimates at eps."""
    lr, lq = lip.image(eps), lip.sino(eps)
    alpha = params.alpha if params.alpha is not None else 1.0 / max(lip.l_z, 1e-12)
    beta = params.beta if params.beta is not None else 1.0 / max(lip.l_x, 1e-12)

    def collapsed(step, l_reg):
        # proximal-collapsed step a*p/(a+p) with p = 0.5/L_reg; always < step
        p = 0.5 / max(l_reg, 1e-12)
        return step * p / (step + p)

    return StepSizes(
        alpha=alpha,
        beta=beta,
        alpha_hat=params.alpha_hat if params.alpha_hat is not None
        else collapsed(alpha, lq),
        beta_hat=params.beta_hat if params.beta_hat is not None
        else collapsed(beta, lr),
    )


def candidate_step(point: Point, steps: StepSizes, eps: float) -> Point:
    """Residual two-block candidate from ``point``: z-block first, x-block
    sees the new z. Reads only the data term's z-gradient at ``point`` and
    applies one A^T."""
    b = point.z - steps.alpha * point.grad_f_z
    u_z = b - steps.alpha_hat * _reg_grad(b, point.spec.sino_weights, eps)
    c = point.x - steps.beta * point.grad_f_x(u_z)
    u_x = c - steps.beta_hat * _reg_grad(c, point.spec.image_weights, eps)
    return Point(point.spec, u_x, u_z)


def extrapolate(point: Point, prev: tuple, theta: float) -> Point:
    """The point p + theta (p - prev), with ``prev`` the previous iterate's
    (x, z, Ax); its Ax combines the two known ones, so it applies no
    operator."""
    x, z, ax = (now + theta * (now - before)
                for now, before in zip((point.x, point.z, point.ax), prev))
    return Point(point.spec, x, z, ax)


def edc_check(point: Point, candidate: Point, params: SolverParams,
              eps: float) -> bool:
    """Energy descent conditions on the candidate pair.

    Sufficient decrease proportional to the squared step, plus a bound on
    the gradient norm at the old iterate by the step lengths.
    """
    sq_x = float(np.sum((candidate.x - point.x)**2))
    sq_z = float(np.sum((candidate.z - point.z)**2))
    if candidate.phi(eps) - point.phi(eps) > -params.eta * (sq_x + sq_z):
        return False
    return grad_norm(*point.grad(eps)) <= (np.sqrt(sq_x) + np.sqrt(sq_z)) / params.eta


def bcd_safeguard(point: Point, params: SolverParams, eps: float):
    """Backtracked block-coordinate-descent fallback.

    A trial with steps (a, b) is v_z = z - a gz, then v_x = x - b (A^T (Ax - v_z)
    + the regularizer's x-gradient) = x - b (gx + a A^T gz), with (gx, gz) the
    smoothed gradient at ``point``; so A v_x = Ax - b (A gx + a A A^T gz). One
    A^T and two A serve every trial, whatever the number of backtracks.

    Returns (new point, backtracks, bar_alpha, bar_beta) with the accepted
    step sizes; raises NumericalError when max_backtracks is exceeded or a
    trial point is not finite.
    """
    spec = point.spec
    bar_a, bar_b = params.bar_alpha0, params.bar_beta0
    gx, gz = point.grad(eps)
    at_gz = spec.backproject(gz)
    a_gx, a_at_gz = spec.project(gx), spec.project(at_gz)
    for bt in range(params.max_backtracks + 1):
        v_z = point.z - bar_a * gz
        v_x = point.x - bar_b * (gx + bar_a * at_gz)
        trial = Point(spec, v_x, v_z, point.ax - bar_b * (a_gx + bar_a * a_at_gz))
        sq = float(np.sum((v_x - point.x)**2) + np.sum((v_z - point.z)**2))
        if trial.phi(eps) - point.phi(eps) <= -params.delta * sq:
            return trial, bt, bar_a, bar_b
        bar_a *= params.rho
        bar_b *= params.rho
    raise NumericalError(
        f"safeguard failed to descend within {params.max_backtracks} backtracks")


def smoothing_update(eps: float, gnorm_new: float, params: SolverParams) -> float:
    """Shrink eps by gamma when the new gradient norm is strictly below
    sigma*gamma*eps; otherwise keep it."""
    if gnorm_new < params.sigma * params.gamma * eps:
        return params.gamma * eps
    return eps


def backtrack_bound(params: SolverParams, l_hat: float) -> int:
    """Upper bound on backtracks at a finite Lipschitz level l_hat:
    ceil(log_rho((delta + L/2)^-1 / max(bar steps))) + 1, with the ratio
    taken in logs, so that it cannot underflow."""
    log_ratio = (-math.log(params.delta + 0.5 * l_hat)
                 - math.log(max(params.bar_alpha0, params.bar_beta0)))
    if log_ratio >= 0.0:
        return 1
    return int(math.ceil(log_ratio / math.log(params.rho))) + 1


def _check_backtrack_budget(lip: LipschitzConstants, params: SolverParams) -> None:
    """Configure-time guard: the shrink budget must reach an acceptable step
    at the smallest smoothing level the schedule can visit. In converge
    mode that is the first eps of the solver's own sequence at or below
    eps_tol, the last it iterates at, or the level max_iters iterations
    reach if that comes first (eps shrinks at most once an iteration)."""
    if params.eps_tol > 0:
        eps_min = params.eps0
        for _ in range(params.max_iters - 1):
            if eps_min <= params.eps_tol:
                break
            eps_min = params.gamma * eps_min
    else:
        eps_min = params.eps0 * params.gamma**20
    l_hat = lip.composite(eps_min)
    if not math.isfinite(l_hat):
        raise ConfigError(f"the Lipschitz estimate at the smallest scheduled eps ({eps_min:g}) "
                          "overflowed; the weights or lambda are too large")
    # the bound counts trial steps, the budget counts shrinks between them
    if backtrack_bound(params, l_hat) > params.max_backtracks + 1:
        raise ConfigError(
            "max_backtracks too small for the Lipschitz estimate at the "
            f"smallest scheduled eps ({eps_min:g}); increase max_backtracks")


def run(spec: ProblemSpec, init: DualState, params: SolverParams):
    """Iterate until max_iters, or until eps <= eps_tol with a gradient norm
    below the reduction threshold (never when eps_tol is 0). Returns (final
    state, IterateLog); a step that fails numerically raises SolverError
    carrying the log so far.

    When eps_tol > 0, the candidate starts from the extrapolated point
    p_k + theta_k (p_k - p_{k-1}) with FISTA's theta_k = (t_k - 1)/t_{k+1},
    t_{k+1} = (1 + sqrt(1 + 4 t_k^2))/2 and t reset to 1 at each eps
    reduction. The EDC, the safeguard, the smoothing update and the log
    still refer to p_k, so every iteration keeps the descent guarantee. In
    the fixed-phase mode (eps_tol = 0) the candidate starts from p_k.
    """
    point = evaluate(init, spec)
    lip = lipschitz_constants(spec)
    _check_backtrack_budget(lip, params)
    log = IterateLog()
    eps = params.eps0
    steps = resolve_steps(lip, params, eps)
    # Every iteration needs the gradient at its start point (EDC bound or
    # safeguard z-step); later start points keep it from the smoothing update.
    point.grad(eps)
    # of the previous iterate only what extrapolation reads, not its
    # features and gradients
    prev, t = (point.x, point.z, point.ax), 1.0

    for k in range(params.max_iters):
        try:
            start = point
            if params.eps_tol > 0:
                t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
                if t > 1.0:
                    start = extrapolate(point, prev, (t - 1.0) / t_next)
                t = t_next
            cand = candidate_step(start, steps, eps)
            if edc_check(point, cand, params, eps):
                new, backtracks, a_used, b_used = cand, 0, steps.alpha, steps.beta
                branch = BRANCH_EDC
            else:
                new, backtracks, a_used, b_used = bcd_safeguard(point, params, eps)
                branch = BRANCH_BCD
        except NumericalError as exc:
            raise SolverError(f"iteration {k}: {exc}", log=log) from exc
        gnorm = grad_norm(*new.grad(eps))
        eps_next = smoothing_update(eps, gnorm, params)
        log.append(IterateRecord(
            k=k, eps=eps, phi_before=point.phi(eps), phi_after=new.phi(eps),
            grad_norm=gnorm, branch=branch, backtracks=backtracks,
            alpha_used=a_used, beta_used=b_used,
            eps_reduced=eps_next != eps))
        prev, point = (point.x, point.z, point.ax), new
        if eps <= params.eps_tol and eps_next != eps:
            break
        if eps_next != eps:
            eps = eps_next
            steps = resolve_steps(lip, params, eps)
            t = 1.0
    return point.state(), log
