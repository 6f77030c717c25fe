"""Closed-form solutions of the unconstrained consumption-investment problem.

Linear utility: with any excess return available (||theta||_T > 0) the
supremum of expected wealth-plus-consumption is infinite; otherwise the
pure bond account is optimal.

Power utility (gamma1, gamma2 < 1): the optimal value is

    z(0, x) = A1(0)/gamma1 * g^{1-q1}(0,x) + A2(0)/gamma2 * g^{1-q2}(0,x)

where g(t,x) > 0 is the unique root of A1 g^{-q1} + A2 g^{-q2} = x, with
growth coefficients

    A1(t) = gamma1^{q1} int_t^T exp(int_t^s beta1) ds
    A2(t) = gamma2^{q2} exp(int_t^T beta2)
    beta_i(t) = (q_i - 1)(r_t + q_i |theta_t|^2 / 2),  q_i = 1/(1-gamma_i).

The root is found in u = ln g by Newton's method on the log residual
ln(A1 e^{-q1 u} + A2 e^{-q2 u}) - ln x, convex and decreasing, from the
low end of its bracket: a few steps even where q1 is in the hundreds and
the first term swamps the second above the root.  Each (t, x) point stops
on its own step test, so a grid gives each point the bits of its own call,
and one Newton step on the linear residual settles its last bits; at
t = T, where A1 = 0, g = (A2/x)^{1/q2} in closed form.

The optimal feedback control is y*(t,x) = p(t,x)/x * theta_t and
c*(t,x) = (gamma1/g(t,x))^{q1} with p = q1 A1 g^{-q1} + q2 A2 g^{-q2}.
For equal exponents everything collapses to an explicit deterministic
strategy: y* = theta/(1-gamma) and the growth-fraction law v* = G^q / D,
D_t = G^q(T) + int_t^T G^q, of the tilted growth factor
G = exp(gamma R_t + (q-1)/2 TS_t); the value is x^gamma D_0^{1/q}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._piecewise import PiecewiseLinear, cumulative_exp_affine, cumulative_linear, segment_index, to_ticks
from .errors import ConvergenceFailure, NegativeRate, UnsupportedRegime
from .market import MarketModel
from .solution import ConditionCheck, Solution
from .strategies import GrowthFractionConsumption, scaled_theta_strategy
from .utility import UtilityParams

G_RESIDUAL_RTOL = 1e-12
_G_MAX_ITER = 200
_G_STEP_TOL = 2.0 ** -40     # after a Newton step this small the next is below rounding


def _solve_g(A1, A2, q1: float, q2: float, x):
    """Vectorized root of A1 g^{-q1} + A2 g^{-q2} = x (g > 0, unique).

    Newton iteration in u = ln g on the log residual
    F(u) = ln(A1 e^{-q1 u} + A2 e^{-q2 u}) - ln x, a log-sum-exp of the
    terms b_i - q_i u, b_i = ln(A_i/x).  It starts at the bracket's low end
    max_i b_i/q_i, where F >= 0; F is convex and decreasing, so every step
    stays left of the root, where no term exceeds x and the exponentials
    shifted by ln x lie in [0, 1].  Each element stops on its own step
    test: it leaves the iteration after a step below _G_STEP_TOL, or at a
    step at or below zero (rounding noise at the root), which it does not
    take.  So a batch of (t, x) points gives each point the bits of its own
    scalar call.  One Newton step on the linear residual
    f = A1 e^{-q1 u} + A2 e^{-q2 u} - x, whose A_i enter without the
    rounding of a log, then settles the last bits; f before that step is
    gated on |f| <= G_RESIDUAL_RTOL x.  Where A1 = 0 (t = T) the root is
    (A2/x)^{1/q2} in closed form.
    """
    shape = np.broadcast_shapes(np.shape(A1), np.shape(A2), np.shape(x))
    A1, A2, x = (np.broadcast_to(np.asarray(a, dtype=np.float64), shape).ravel()
                 for a in (A1, A2, x))
    if np.any(x <= 0):
        raise ValueError("wealth argument must be positive")

    closed = A1 == 0                         # t = T: the closed form
    g = np.empty(A1.shape)
    g[closed] = (A2[closed] / x[closed]) ** (1.0 / q2)
    A1, A2, x = (a[~closed] for a in (A1, A2, x))
    with np.errstate(divide="ignore"):
        b1, b2 = np.log(A1 / x), np.log(A2 / x)
    u = np.maximum(b1 / q1, b2 / q2)
    live, lu = np.arange(u.size), u          # the iterating elements, their points
    for _ in range(_G_MAX_ITER):
        if not live.size:
            break
        e1, e2 = np.exp(b1 - q1 * lu), np.exp(b2 - q2 * lu)
        total = e1 + e2
        step = np.log(total) * total / (q1 * e1 + q2 * e2)     # F / |F'|
        lu = np.where(step > 0, lu + step, lu)
        u[live] = lu
        going = step > _G_STEP_TOL
        if not going.all():
            live, b1, b2, lu = (a[going] for a in (live, b1, b2, lu))
    t1, t2 = A1 * np.exp(-q1 * u), A2 * np.exp(-q2 * u)
    f = t1 + t2 - x
    if not np.all(np.abs(f) <= G_RESIDUAL_RTOL * x):
        raise ConvergenceFailure("g-root iteration did not converge")
    g[~closed] = np.exp(u + f / (q1 * t1 + q2 * t2))
    return g.reshape(shape)


@dataclass(frozen=True)
class HaraFeedback:
    """Implicit feedback handles (g, p, c*) of the power-utility optimum at
    initial wealth x0, over the exact growth coefficients A1, A2 and their
    derivatives."""

    model: MarketModel
    utility: UtilityParams
    x0: float
    beta1_step: np.ndarray
    beta2_step: np.ndarray
    cum_beta1: PiecewiseLinear
    cum_beta2: PiecewiseLinear
    exp_beta1_integral: object      # int_0^t e^{B1(s)} ds

    @classmethod
    def build(cls, model: MarketModel, utility: UtilityParams, x0: float) -> "HaraFeedback":
        q1, q2 = utility.q1, utility.q2
        theta_sq = np.sum(model.theta_step ** 2, axis=1)
        beta1 = (q1 - 1.0) * (model.r_step + 0.5 * q1 * theta_sq)
        beta2 = (q2 - 1.0) * (model.r_step + 0.5 * q2 * theta_sq)
        cum_b1 = cumulative_linear(model.node_ticks, beta1)
        cum_b2 = cumulative_linear(model.node_ticks, beta2)
        return cls(
            model=model, utility=utility, x0=x0,
            beta1_step=beta1, beta2_step=beta2,
            cum_beta1=cum_b1, cum_beta2=cum_b2,
            exp_beta1_integral=cumulative_exp_affine(cum_b1),
        )

    def beta_at(self, t, which: int) -> np.ndarray:
        idx = segment_index(self.model.node_ticks, to_ticks(t))
        step = self.beta1_step if which == 1 else self.beta2_step
        return step[idx]

    def A1(self, t):
        g1 = self.utility.gamma1 ** self.utility.q1
        tail = self.exp_beta1_integral.end_value - self.exp_beta1_integral(t)
        return g1 * np.exp(-self.cum_beta1(t)) * tail

    def A2(self, t):
        g2 = self.utility.gamma2 ** self.utility.q2
        return g2 * np.exp(self.cum_beta2.end_value - self.cum_beta2(t))

    def A1_dot(self, t):
        """Exact derivative at interval interiors: -beta1 A1 - gamma1^{q1}."""
        g1 = self.utility.gamma1 ** self.utility.q1
        return -self.beta_at(t, 1) * self.A1(t) - g1

    def A2_dot(self, t):
        return -self.beta_at(t, 2) * self.A2(t)

    def g(self, t, x):
        out = _solve_g(self.A1(t), self.A2(t), self.utility.q1, self.utility.q2, x)
        return float(out) if out.ndim == 0 else out

    def p_from_g(self, t, g):
        q1, q2 = self.utility.q1, self.utility.q2
        return q1 * self.A1(t) * g ** -q1 + q2 * self.A2(t) * g ** -q2

    def c_from_g(self, g):
        return (self.utility.gamma1 / g) ** self.utility.q1

    def value_function(self, t, x):
        """Candidate value z(t,x); z(0,x) is the optimal cost."""
        g = self.g(t, x)
        u = self.utility
        return (self.A1(t) / u.gamma1 * g ** (1.0 - u.q1)
                + self.A2(t) / u.gamma2 * g ** (1.0 - u.q2))

    def z_t_from_g(self, t, g):
        """Exact time partial of z away from coefficient breakpoints."""
        u = self.utility
        return (-self.A1_dot(t) / (1.0 - u.q1) * g ** (1.0 - u.q1)
                - self.A2_dot(t) / (1.0 - u.q2) * g ** (1.0 - u.q2))

    def wealth_mean(self, t):
        """E[X*_t] from the exponential-of-Gaussian representation."""
        t = np.asarray(t, dtype=np.float64)
        g0 = self.g(0.0, self.x0)
        q1, q2 = self.utility.q1, self.utility.q2
        R = self.model.R(t)
        TS = self.model.theta_sq_cum(t)

        def moment(q):
            return np.exp(q * (R + 0.5 * TS) + 0.5 * q * q * TS)

        return (self.A1(t) * g0 ** -q1 * moment(q1)
                + self.A2(t) * g0 ** -q2 * moment(q2))


def hara_g(model: MarketModel, utility: UtilityParams, t, x):
    """Root g(t,x) of A1(t) g^{-q1} + A2(t) g^{-q2} = x (standalone form).

    Residual is driven below 1e-12 * x; unique by strict monotonicity.  The
    initial wealth of the feedback built here enters only its wealth_mean.
    """
    return HaraFeedback.build(model, utility, 1.0).g(t, x)


def solve_linear_unconstrained(model: MarketModel, x: float) -> Solution:
    """Linear-utility optimum: unbounded when any excess return exists."""
    if not model.rate_nonnegative():
        raise NegativeRate("linear-utility results require r_t >= 0")
    tn = model.theta_norm_T
    if tn > 0:
        return Solution(
            value=np.inf, regime="unconstrained_linear_unbounded",
            model=model, x=x,
            utility=UtilityParams(1.0, 1.0),
            wealth_law={"kind": "unbounded",
                        "note": "expected wealth grows without bound in exposure"},
            conditions=(ConditionCheck("positive_excess_return", True, tn),),
        )
    return Solution(
        value=x * float(np.exp(model.R(model.horizon))),
        regime="unconstrained_linear_bond",
        model=model, x=x,
        utility=UtilityParams(1.0, 1.0),
        strategy=scaled_theta_strategy(model, 0.0),
        wealth_law={"kind": "lognormal_exact",
                    "note": "pure bond account; exposure choice is immaterial "
                            "and fixed to zero"},
        conditions=(ConditionCheck("zero_excess_return", True, 0.0),),
    )


def solve_hara_unconstrained(model: MarketModel, utility: UtilityParams,
                             x: float) -> Solution:
    """Power-utility optimum in implicit feedback form."""
    if not utility.is_hara:
        raise UnsupportedRegime(
            "feedback solution requires gamma1, gamma2 in (0,1); "
            "use the linear solver for gamma = 1")
    feedback = HaraFeedback.build(model, utility, x)
    value = float(feedback.value_function(0.0, x))
    g0 = feedback.g(0.0, x)
    return Solution(
        value=value, regime="unconstrained_hara",
        model=model, x=x, utility=utility,
        feedback=feedback,
        wealth_law={
            "kind": "lognormal_mixture_exact",
            "g0": float(g0),
            "q1": utility.q1, "q2": utility.q2,
            "note": "wealth = A1(t) g0^{-q1} e^{-q1 xi_t} + A2(t) g0^{-q2} "
                    "e^{-q2 xi_t} with xi Gaussian",
        },
        conditions=(ConditionCheck("hara_exponents", True,
                                   min(1.0 - utility.gamma1,
                                       1.0 - utility.gamma2)),),
    )


def equal_gamma_consumption(gamma: float) -> GrowthFractionConsumption:
    """Growth-fraction law of the equal-exponent optimum: weight G^q for the
    tilted growth factor G = exp(gamma R_t + (q-1)/2 TS_t), q = 1/(1-gamma)."""
    q = 1.0 / (1.0 - gamma)
    return GrowthFractionConsumption(q * gamma, 0.5 * q * (q - 1.0))


def equal_gamma_value(model: MarketModel, gamma: float, x: float) -> float:
    """x^gamma D_0^{1/q}, D_0 = ||G||_{q,T}^q + G^q(T) the optimum's budget."""
    q = 1.0 / (1.0 - gamma)
    return float(x ** gamma * equal_gamma_consumption(gamma).budget(model) ** (1.0 / q))


def kappa_tilde(model: MarketModel, gamma: float) -> float:
    """Consumed fraction 1 - e^{-V*_T} of the equal-exponent optimum."""
    return equal_gamma_consumption(gamma).spent_fraction(model)


def solve_equal_gamma(model: MarketModel, gamma: float, x: float) -> Solution:
    """Equal-exponent specialization with explicit deterministic controls."""
    if not 0.0 < gamma < 1.0:
        raise UnsupportedRegime("equal-exponent solver needs gamma in (0,1)")
    q = 1.0 / (1.0 - gamma)
    return Solution(
        value=equal_gamma_value(model, gamma, x), regime="unconstrained_equal_gamma",
        model=model, x=x,
        utility=UtilityParams(gamma, gamma),
        # explicit optimal control: y* = theta/(1-gamma), growth-fraction v*
        strategy=scaled_theta_strategy(model, q, equal_gamma_consumption(gamma)),
        wealth_law={
            "kind": "lognormal_exact",
            "note": f"dX = X (r - v* + q|theta|^2) dt + X q theta' dW, q={q:.6g}",
        },
        conditions=(ConditionCheck("hara_exponents", True, 1.0 - gamma),),
    )


def solve_unconstrained(model: MarketModel, utility: UtilityParams,
                        x: float) -> Solution:
    """Dispatch on the exponent pattern; mixed power/linear is not covered."""
    if utility.is_linear:
        return solve_linear_unconstrained(model, x)
    if utility.is_hara:
        if utility.equal:
            return solve_equal_gamma(model, utility.gamma1, x)
        return solve_hara_unconstrained(model, utility, x)
    raise UnsupportedRegime(
        "no closed form for mixed linear/power exponents "
        f"(gamma1={utility.gamma1}, gamma2={utility.gamma2})")
