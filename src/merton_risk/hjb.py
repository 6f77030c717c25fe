"""Dynamic-programming verification of the feedback optimum.

The candidate value surface

    z(t,x) = A1(t)/g1 * g^{1-q1}(t,x) + A2(t)/g2 * g^{1-q2}(t,x)

must satisfy, at every continuity point of the coefficients,

    z_t + r x z_x + z_x^2 |theta|^2 / (2|z_xx|) + (1/q1)(g1/z_x)^{q1-1} = 0,
    z(T, x) = x^{g2},

with z_x = g and z_xx = -g/p available analytically, and the reduced
Hamiltonian must be attained by the feedback pair

    y0 = z_x/(x|z_xx|) theta,   c0 = (g1/z_x)^{q1}.

Grid nodes are placed strictly off the coefficient breakpoints, where the
time derivative of z may jump.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._piecewise import segment_index, to_ticks
from ._table import write_grid_csv
from .errors import GridTouchesBreakpoint
from .market import MarketModel
from .unconstrained import HaraFeedback, solve_hara_unconstrained
from .utility import UtilityParams

HAMILTONIAN_GAP_TOL = 1e-10


@dataclass(frozen=True)
class HjbReport:
    t_nodes: np.ndarray
    x_nodes: np.ndarray
    residuals: np.ndarray          # (n_t, n_x) relative residuals
    max_abs_residual: float        # max relative residual
    terminal_error: float          # max |z(T,x) - x^{gamma2}|
    hamiltonian_gap: float         # max over probes of H0(probe) - H0(opt)
    excluded_times: tuple = ()     # coefficient jump times kept off the grid

    def as_dict(self) -> dict:
        return {
            "max_abs_residual": float(self.max_abs_residual),
            "terminal_error": float(self.terminal_error),
            "hamiltonian_gap": float(self.hamiltonian_gap),
            "n_t": len(self.t_nodes),
            "n_x": len(self.x_nodes),
            "excluded_times": [float(t) for t in self.excluded_times],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")

    def write_csv(self, path) -> None:
        write_grid_csv(path, ["t", "x", "residual"], self.t_nodes, self.x_nodes,
                       self.residuals, ".6g")


def off_breakpoint_grid(model: MarketModel, n_t: int) -> np.ndarray:
    """Interior time nodes avoiding every coefficient breakpoint."""
    ts = np.linspace(0.0, model.horizon, n_t + 2)[1:-1]
    bp = set(model.node_ticks.tolist())
    shift = (model.horizon / (n_t + 2)) * 0.37
    out = []
    for t in ts:
        tt = t
        while int(to_ticks(tt)) in bp:
            tt = tt + shift
        out.append(tt)
    return np.asarray(out)


def _check_grid(model: MarketModel, t_nodes: np.ndarray) -> None:
    bp = set(model.node_ticks.tolist())
    for t in np.asarray(t_nodes, dtype=np.float64):
        if int(to_ticks(t)) in bp:
            raise GridTouchesBreakpoint(
                f"t = {t} coincides with a coefficient breakpoint")


def _reduced_hamiltonian_terms(model: MarketModel, utility: UtilityParams,
                               fb: HaraFeedback, t, xs: np.ndarray):
    """The four HJB terms at a time t, or at a column of times, and wealths xs."""
    q1 = utility.q1
    g = fb.g(t, xs)
    p = fb.p_from_g(t, g)
    seg = segment_index(model.node_ticks, to_ticks(t))
    theta, r = model.theta_step[seg], model.r_step[seg]
    # one dot product per segment: a row sum of squares may round differently
    theta_sq = np.array([th @ th for th in model.theta_step])[seg]
    term_t = fb.z_t_from_g(t, g)
    term_r = r * xs * g
    term_quad = 0.5 * g * p * theta_sq          # z_x^2 |theta|^2 / (2|z_xx|)
    term_cons = (1.0 / q1) * (utility.gamma1 / g) ** (q1 - 1.0)
    return term_t, term_r, term_quad, term_cons, g, p, r, theta


def hjb_residual(model: MarketModel, utility: UtilityParams,
                 t_nodes=None, x_nodes=None, n_t: int = 50,
                 n_x: int = 50, x_range=(0.25, 4.0),
                 feedback: HaraFeedback | None = None) -> HjbReport:
    """Relative dynamic-programming residual on an off-breakpoint grid.

    All derivatives are analytic (the candidate surface is only piecewise
    smooth in t, so finite differences across breakpoints are forbidden by
    node placement).  The residual is scaled by the sum of the magnitudes
    of its four terms.
    """
    if t_nodes is None:
        t_nodes = off_breakpoint_grid(model, n_t)
    else:
        t_nodes = np.asarray(t_nodes, dtype=np.float64)
    _check_grid(model, t_nodes)
    if x_nodes is None:
        x_nodes = np.linspace(x_range[0], x_range[1], n_x)
    else:
        x_nodes = np.asarray(x_nodes, dtype=np.float64)
    if np.any(x_nodes <= 0):
        raise ValueError("wealth grid must be positive")
    if feedback is None:
        feedback = solve_hara_unconstrained(model, utility, 1.0).feedback

    # one batched g-root over the whole (t, x) grid
    term_t, term_r, term_quad, term_cons, *_ = _reduced_hamiltonian_terms(
        model, utility, feedback, t_nodes[:, None], x_nodes)
    raw = term_t + term_r + term_quad + term_cons
    scale = (np.abs(term_t) + np.abs(term_r)
             + np.abs(term_quad) + np.abs(term_cons))
    residuals = raw / np.maximum(scale, 1e-300)

    z_T = feedback.value_function(model.horizon, x_nodes)
    terminal_error = float(np.max(np.abs(z_T - x_nodes ** utility.gamma2)))
    interior_jumps = tuple(
        float(t) for t in model.nodes[1:-1])
    return HjbReport(
        t_nodes=t_nodes, x_nodes=x_nodes, residuals=residuals,
        max_abs_residual=float(np.max(np.abs(residuals))),
        terminal_error=terminal_error,
        hamiltonian_gap=0.0,
        excluded_times=interior_jumps,
    )


def _h0(r, theta, x, z1, z2, y, c, gamma1):
    """Pre-maximization Hamiltonian at a single node, vectorized in probes."""
    ydt = y @ theta
    ysq = np.sum(y * y, axis=-1)
    return ((r + ydt) * x * z1 + 0.5 * x * x * ysq * z2
            + c ** gamma1 - c * z1)


def hamiltonian_argmax_check(model: MarketModel, utility: UtilityParams,
                             t_nodes=None, x_nodes=None, n_t: int = 10,
                             n_x: int = 10, n_probes: int = 64,
                             seed: int = 0,
                             feedback: HaraFeedback | None = None) -> HjbReport:
    """Verify no probe control beats the feedback pair in the Hamiltonian.

    Probes mix random controls with scaled perturbations of the optimum;
    the report's hamiltonian_gap is the worst probe advantage (should not
    exceed ~1e-10 of the node scale).
    """
    if t_nodes is None:
        t_nodes = off_breakpoint_grid(model, n_t)
    t_nodes = np.asarray(t_nodes, dtype=np.float64)
    _check_grid(model, t_nodes)
    if x_nodes is None:
        x_nodes = np.linspace(0.25, 4.0, n_x)
    x_nodes = np.asarray(x_nodes, dtype=np.float64)
    if feedback is None:
        feedback = solve_hara_unconstrained(model, utility, 1.0).feedback
    _, _, _, _, gs, ps, rs, thetas = _reduced_hamiltonian_terms(
        model, utility, feedback, t_nodes[:, None], x_nodes)
    rng = np.random.default_rng(seed)
    d = model.dimension
    gap = -np.inf
    for i in range(len(t_nodes)):
        r, theta = rs[i, 0], thetas[i, 0]
        for j, x in enumerate(x_nodes):
            z1 = gs[i, j]
            z2 = -gs[i, j] / ps[i, j]
            y_opt = (z1 / (x * abs(z2))) * theta
            c_opt = (utility.gamma1 / z1) ** utility.q1
            h_opt = _h0(r, theta, x, z1, z2, y_opt[None, :],
                        np.array([c_opt]), utility.gamma1)[0]
            scales = rng.uniform(0.25, 4.0, size=(n_probes, 1))
            y_probe = np.vstack([
                y_opt[None, :] * scales,
                rng.standard_normal((n_probes, d)),
            ])
            c_probe = np.concatenate([
                c_opt * rng.uniform(0.0, 4.0, size=n_probes),
                rng.uniform(0.0, 2.0, size=n_probes),
            ])
            h_probe = _h0(r, theta, x, z1, z2, y_probe, c_probe,
                          utility.gamma1)
            node_gap = float(np.max(h_probe) - h_opt)
            gap = max(gap, node_gap)
    return HjbReport(
        t_nodes=t_nodes, x_nodes=x_nodes, residuals=np.zeros((0, 0)),
        max_abs_residual=0.0, terminal_error=0.0, hamiltonian_gap=gap,
    )
