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
time derivative of z may jump.  The argmax check's random probes are drawn
node by node in a fixed order, so a given seed reproduces earlier reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._piecewise import segment_index, to_ticks
from ._table import grid_axes, write_json, write_table
from .errors import GridTouchesBreakpoint
from .market import MarketModel
from .unconstrained import HaraFeedback
from .utility import UtilityParams


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
        write_json(path, self.as_dict())

    def write_csv(self, path) -> None:
        write_table(path, ["t", "x", "residual"],
                    [*grid_axes(self.t_nodes, self.x_nodes), np.ravel(self.residuals)],
                    ["s", "s", ".6g"])


def _on_breakpoint(model: MarketModel, t) -> np.ndarray:
    """Which times snap to the tick of a coefficient breakpoint."""
    return np.isin(to_ticks(t), model.node_ticks)


def off_breakpoint_grid(model: MarketModel, n_t: int) -> np.ndarray:
    """Interior time nodes avoiding every coefficient breakpoint: a node on
    one moves right by a fixed shift until it is off every breakpoint."""
    ts = np.linspace(0.0, model.horizon, n_t + 2)[1:-1]
    shift = (model.horizon / (n_t + 2)) * 0.37
    for i in np.flatnonzero(_on_breakpoint(model, ts)):
        while _on_breakpoint(model, ts[i]):
            ts[i] = ts[i] + shift
    return ts


def _check_grid(model: MarketModel, t_nodes: np.ndarray) -> None:
    hits = np.flatnonzero(_on_breakpoint(model, t_nodes))
    if hits.size:
        raise GridTouchesBreakpoint(
            f"t = {t_nodes[hits[0]]} coincides with a coefficient breakpoint")


def _grid(model: MarketModel, t_nodes, n_t: int, n_x: int):
    """Checked time nodes and the wealth nodes on [0.25, 4]."""
    if t_nodes is None:
        t_nodes = off_breakpoint_grid(model, n_t)
    t_nodes = np.asarray(t_nodes, dtype=np.float64)
    _check_grid(model, t_nodes)
    return t_nodes, np.linspace(0.25, 4.0, n_x)


def _feedback_at(model: MarketModel, fb: HaraFeedback, t, xs: np.ndarray):
    """g, p, the coefficient segment and its r and theta at a time t, or at
    a column of times, and wealths xs."""
    g = fb.g(t, xs)
    p = fb.p_from_g(t, g)
    seg = segment_index(model.node_ticks, to_ticks(t))
    return g, p, seg, model.r_step[seg], model.theta_step[seg]


def _reduced_hamiltonian_terms(model: MarketModel, utility: UtilityParams,
                               fb: HaraFeedback, t, xs: np.ndarray):
    """The four HJB terms at a time t, or at a column of times, and wealths xs."""
    q1 = utility.q1
    g, p, seg, r, theta = _feedback_at(model, fb, t, xs)
    # one dot product per segment: a row sum of squares may round differently
    theta_sq = np.array([th @ th for th in model.theta_step])[seg]
    term_t = fb.z_t_from_g(t, g)
    term_r = r * xs * g
    term_quad = 0.5 * g * p * theta_sq          # z_x^2 |theta|^2 / (2|z_xx|)
    term_cons = (1.0 / q1) * (utility.gamma1 / g) ** (q1 - 1.0)
    return term_t, term_r, term_quad, term_cons, g, p, r, theta


def hjb_residual(model: MarketModel, utility: UtilityParams, feedback: HaraFeedback,
                 t_nodes=None, n_t: int = 50, n_x: int = 50) -> HjbReport:
    """Relative dynamic-programming residual on an off-breakpoint grid.

    All derivatives are analytic (the candidate surface is only piecewise
    smooth in t, so finite differences across breakpoints are forbidden by
    node placement).  The residual is scaled by the sum of the magnitudes
    of its four terms.
    """
    t_nodes, x_nodes = _grid(model, t_nodes, n_t, n_x)

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
    """Pre-maximization Hamiltonian, vectorized in probes (last axis of c).

    x, z1 and z2 are scalars for one node, or (n, 1) columns with y of shape
    (n, k, d) for n nodes sharing r and theta.
    """
    ydt = (y @ theta[..., :, None])[..., 0]
    ysq = np.sum(y * y, axis=-1)
    return ((r + ydt) * x * z1 + 0.5 * x * x * ysq * z2
            + c ** gamma1 - c * z1)


def hamiltonian_argmax_check(model: MarketModel, utility: UtilityParams,
                             feedback: HaraFeedback, n_t: int = 10, n_x: int = 10,
                             n_probes: int = 64, seed: int = 0) -> HjbReport:
    """Verify no probe control beats the feedback pair in the Hamiltonian.

    The nodes are off_breakpoint_grid(model, n_t) in t and n_x wealths on
    [0.25, 4].  Probes mix random controls with scaled perturbations of the
    optimum; the report's hamiltonian_gap is the worst probe advantage, which
    `verify` gates by --gap-tol (default cli.HAMILTONIAN_GAP_TOL).  Probes are
    drawn node by node, t slowest, four draws per node; each time row is then
    evaluated in one pass.
    """
    t_nodes, x_nodes = _grid(model, None, n_t, n_x)
    gs, ps, _, rs, thetas = _feedback_at(model, feedback, t_nodes[:, None], x_nodes)
    rng = np.random.default_rng(seed)
    m, nx = n_probes, len(x_nodes)
    xs = x_nodes[:, None]
    y_probe = np.empty((nx, 2 * m, model.dimension))
    c_probe = np.empty((nx, 2 * m))
    gap = -np.inf
    for i in range(len(t_nodes)):
        r, theta = rs[i, 0], thetas[i, 0]
        z1 = gs[i][:, None]
        z2 = -z1 / ps[i][:, None]
        y_opt = (z1 / (xs * np.abs(z2))) * theta
        # one scalar power per node: an array power may round differently
        c_opt = np.array([(utility.gamma1 / g) ** utility.q1 for g in gs[i]])
        h_opt = _h0(r, theta, xs, z1, z2, y_opt[:, None, :],
                    c_opt[:, None], utility.gamma1)
        for j in range(nx):
            y_probe[j, :m] = y_opt[j] * rng.uniform(0.25, 4.0, size=(m, 1))
            rng.standard_normal(out=y_probe[j, m:])
            c_probe[j, :m] = c_opt[j] * rng.uniform(0.0, 4.0, size=m)
            c_probe[j, m:] = rng.uniform(0.0, 2.0, size=m)
        h_probe = _h0(r, theta, xs, z1, z2, y_probe, c_probe, utility.gamma1)
        gap = max(gap, *(np.max(h_probe, axis=1) - h_opt[:, 0]).tolist())
    return HjbReport(
        t_nodes=t_nodes, x_nodes=x_nodes, residuals=np.zeros((0, 0)),
        max_abs_residual=0.0, terminal_error=0.0, hamiltonian_gap=gap,
    )
