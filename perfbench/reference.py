"""Reference computations made apart from the program under test.

Everything here starts from the problem documents themselves and uses
numpy, scipy's adaptive quadrature and root bracketing, and the standard
library's normal distribution. No module of ``merton_risk`` is imported,
so a fault in the program's closed forms cannot hide in its own check.

Notation follows the paper: R_t = int r, TS_t = int |theta|^2,
||theta||_T = sqrt(TS_T), q = 1/(1-gamma).
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
from scipy import integrate, optimize

STD_NORMAL = NormalDist()


def norm_sf(u: float) -> float:
    """P(Z >= u) for standard normal Z, accurate in the far tail."""
    return 0.5 * math.erfc(u / math.sqrt(2.0))


def abs_z(alpha: float) -> float:
    """|z_alpha| of the standard normal alpha-quantile."""
    return -STD_NORMAL.inv_cdf(alpha)


class Market:
    """Piecewise-constant market rebuilt from a problem document's market block."""

    def __init__(self, doc: dict):
        self.T = float(doc["T"])
        self.d = int(doc["d"])

        def segments(key):
            return [(float(s["t0"]), np.asarray(s["value"], dtype=np.float64))
                    for s in doc[key]]

        paths = [segments(k) for k in ("r", "mu", "sigma")]
        nodes = sorted({t for path in paths for t, _ in path} | {self.T})
        self.nodes = np.asarray(nodes)

        def value(path, t):
            out = path[0][1]
            for t0, v in path:
                if t0 <= t:
                    out = v
            return out

        left = self.nodes[:-1]
        self.r = np.array([float(value(paths[0], t)) for t in left])
        self.mu = np.array([value(paths[1], t) for t in left])
        self.sigma = np.array([value(paths[2], t) for t in left])
        self.theta = np.array([np.linalg.solve(s, m - r) for s, m, r
                               in zip(self.sigma, self.mu, self.r)])
        self.theta_sq = np.sum(self.theta ** 2, axis=1)
        dt = np.diff(self.nodes)
        self.cum_r = np.concatenate([[0.0], np.cumsum(self.r * dt)])
        self.cum_ts = np.concatenate([[0.0], np.cumsum(self.theta_sq * dt)])

    def R(self, t):
        return np.interp(t, self.nodes, self.cum_r)

    def TS(self, t):
        return np.interp(t, self.nodes, self.cum_ts)

    @property
    def tn(self) -> float:
        return math.sqrt(self.cum_ts[-1])

    @property
    def constant(self) -> bool:
        return len(self.nodes) == 2

    def interval(self, t) -> int:
        """Index of the interval [t_j, t_{j+1}) holding t (t = T: the last)."""
        j = int(np.searchsorted(self.nodes, t, side="right")) - 1
        return min(max(j, 0), len(self.nodes) - 2)

    def integral(self, f, a: float = 0.0, b: float | None = None) -> float:
        """int_a^b f(t) dt by adaptive quadrature split at the breakpoints."""
        b = self.T if b is None else b
        cuts = [a] + [float(t) for t in self.nodes if a < t < b] + [b]
        return math.fsum(
            integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0]
            for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo)


# ---------------------------------------------------------------------------
# Control laws of the closed-form regimes, and the cost of a control law
# ---------------------------------------------------------------------------

class Law:
    """A deterministic control (y_t, v_t) given by its cumulants.

    cons(t) = v_t e^{-V_t}; ydt, ynn are (y,theta)_t and ||y||_t^2; V(t) is
    the cumulative consumption rate; y(t) the exposure vector; v(t) the rate.
    """

    def __init__(self, m: Market, cons, V, ydt, ynn, y, v):
        self.m, self.cons, self.V, self.ydt, self.ynn = m, cons, V, ydt, ynn
        self.y, self.v = y, v

    def cost(self, g1: float, g2: float, x: float) -> float:
        """E[int_0^T c^g1 dt + X_T^g2] of the lognormal wealth, by quadrature."""
        m = self.m
        k1 = 0.5 * g1 * (1.0 - g1)
        k2 = 0.5 * g2 * (1.0 - g2)

        def integrand(t):
            c = self.cons(t)
            if c <= 0.0:
                return 0.0
            return math.exp(g1 * (math.log(c) + m.R(t) + self.ydt(t))
                            - k1 * self.ynn(t))

        T = m.T
        terminal = math.exp(g2 * (m.R(T) - self.V(T) + self.ydt(T))
                            - k2 * self.ynn(T))
        return x ** g1 * m.integral(integrand) + x ** g2 * terminal

    def wealth_law(self, x: float, t: float) -> "MixtureLaw":
        """X_t = x exp(R - V + ydt - ynn/2 + N(0, ynn)) as a one-term mixture."""
        m = self.m
        a = x * math.exp(m.R(t) - self.V(t) + self.ydt(t) - 0.5 * self.ynn(t))
        return MixtureLaw([(a, 1.0)], 0.0, math.sqrt(max(self.ynn(t), 0.0)))


def equal_gamma_law(m: Market, gamma: float) -> Law:
    """Unconstrained equal-exponent optimum: y = q theta, v = G^q / D."""
    q = 1.0 / (1.0 - gamma)

    def gq(t):
        return math.exp(q * gamma * m.R(t) + 0.5 * q * (q - 1.0) * m.TS(t))

    def D(t):
        return gq(m.T) + m.integral(gq, t, m.T)

    d0 = D(0.0)
    return Law(
        m, cons=lambda t: gq(t) / d0,
        V=lambda t: math.log(d0 / D(t)),
        ydt=lambda t: q * m.TS(t), ynn=lambda t: q * q * m.TS(t),
        y=lambda t: q * m.theta[m.interval(t)],
        v=lambda t: gq(t) / D(t))


def tight_law(m: Market, gamma1: float, zeta: float) -> Law:
    """Riskless budget-fraction consumption: pi = 0, V_T = -ln(1 - zeta)."""
    q = 1.0 / (1.0 - gamma1)

    def nq(t):
        return math.exp(q * gamma1 * m.R(t))

    total = m.integral(nq)
    zero = np.zeros(m.d)
    return Law(
        m, cons=lambda t: zeta * nq(t) / total,
        V=lambda t: -math.log1p(-zeta * m.integral(nq, 0.0, t) / total),
        ydt=lambda t: 0.0, ynn=lambda t: 0.0, y=lambda t: zero,
        v=lambda t: zeta * nq(t) / (total - zeta * m.integral(nq, 0.0, t)))


def linear_law(m: Market, rho: float) -> Law:
    """Exposure rho theta_t / ||theta||_T, no consumption."""
    tn = m.tn
    zero = np.zeros(m.d)
    return Law(
        m, cons=lambda t: 0.0, V=lambda t: 0.0,
        ydt=lambda t: rho * m.TS(t) / tn,
        ynn=lambda t: rho * rho * m.TS(t) / (tn * tn),
        y=(lambda t: rho * m.theta[m.interval(t)] / tn) if tn > 0
        else (lambda t: zero),
        v=lambda t: 0.0)


def pi_of(m: Market, t: float, y) -> np.ndarray:
    """Portfolio pi with sigma_t' pi = y."""
    return np.linalg.solve(m.sigma[m.interval(t)].T, y)


class Feedback:
    """Unconstrained unequal-exponent optimum through the law of its wealth.

    The optimal marginal utility is g0 e^{xi_t} with xi Gaussian,
    E xi_t = -(R_t + TS_t/2), Var xi_t = TS_t; wealth is
    A1(t) g^{-q1} + A2(t) g^{-q2} and consumption (gamma1/g)^{q1}.
    """

    def __init__(self, m: Market, g1: float, g2: float, x: float):
        self.m, self.g1, self.g2, self.x = m, g1, g2, x
        self.q1, self.q2 = 1.0 / (1.0 - g1), 1.0 / (1.0 - g2)
        theta_sq = m.theta_sq
        b1 = (self.q1 - 1.0) * (m.r + 0.5 * self.q1 * theta_sq)
        b2 = (self.q2 - 1.0) * (m.r + 0.5 * self.q2 * theta_sq)
        dt = np.diff(m.nodes)
        self._B1 = np.concatenate([[0.0], np.cumsum(b1 * dt)])
        self._B2 = np.concatenate([[0.0], np.cumsum(b2 * dt)])
        a1, a2 = self.A1(0.0), self.A2(0.0)
        f = lambda u: a1 * math.exp(-self.q1 * u) + a2 * math.exp(-self.q2 * u) - x
        lo, hi = -50.0, 50.0
        self.g0 = math.exp(optimize.brentq(f, lo, hi, xtol=1e-15, rtol=1e-15,
                                           maxiter=500))

    def B1(self, t):
        return np.interp(t, self.m.nodes, self._B1)

    def B2(self, t):
        return np.interp(t, self.m.nodes, self._B2)

    def A1(self, t: float) -> float:
        b1t = self.B1(t)
        tail = self.m.integral(lambda s: math.exp(self.B1(s) - b1t), t, self.m.T)
        return self.g1 ** self.q1 * tail

    def A2(self, t: float) -> float:
        return self.g2 ** self.q2 * math.exp(self.B2(self.m.T) - self.B2(t))

    def xi(self, t: float) -> tuple[float, float]:
        m = self.m
        return -(m.R(t) + 0.5 * m.TS(t)), math.sqrt(max(m.TS(t), 0.0))

    def cost(self) -> float:
        """int_0^T E[c_t^g1] dt + E[X_T^g2], by quadrature over t."""
        g1, g2, q1, q2, g0 = self.g1, self.g2, self.q1, self.q2, self.g0

        def lognormal_moment(k, t):
            mean, sd = self.xi(t)
            return math.exp(-k * mean + 0.5 * k * k * sd * sd)

        cons = self.m.integral(
            lambda t: (g1 / g0) ** (q1 * g1) * lognormal_moment(q1 * g1, t))
        a2T = self.g2 ** q2 * g0 ** -q2
        terminal = a2T ** g2 * lognormal_moment(q2 * g2, self.m.T)
        return cons + terminal

    def wealth_law(self, t: float) -> "MixtureLaw":
        mean, sd = self.xi(t)
        terms = [(self.A1(t) * self.g0 ** -self.q1, self.q1),
                 (self.A2(t) * self.g0 ** -self.q2, self.q2)]
        return MixtureLaw([(a, q) for a, q in terms if a > 0.0], mean, sd)


def merton_constant_value(m: Market, gamma: float, x: float) -> float:
    """Classical Merton value for constant r, theta and equal exponents.

    V = x^gamma ((e^{nu T} - 1)/nu + e^{nu T})^{1-gamma},
    nu = gamma/(1-gamma) (r + |theta|^2 / (2(1-gamma))).
    """
    if not m.constant:
        raise ValueError("the classical Merton value needs constant coefficients")
    r, th2, T = m.r[0], m.theta_sq[0], m.T
    nu = gamma / (1.0 - gamma) * (r + th2 / (2.0 * (1.0 - gamma)))
    growth = math.expm1(nu * T) / nu if nu != 0.0 else T
    return x ** gamma * (growth + math.exp(nu * T)) ** (1.0 - gamma)


# ---------------------------------------------------------------------------
# Exposure budgets of the linear regimes
# ---------------------------------------------------------------------------

def var_budget_residual(m: Market, alpha: float, zeta: float, rho: float) -> float:
    """||theta||_T rho - rho^2/2 - |z_a| rho - ln(1-zeta); 0 at rho*_VaR."""
    return m.tn * rho - 0.5 * rho * rho - abs_z(alpha) * rho - math.log1p(-zeta)


def es_budget_residual(m: Market, alpha: float, zeta: float, rho: float) -> float:
    """||theta||_T rho + ln F_a(|z_a| + rho) - ln(1-zeta); 0 at rho*_ES."""
    z = abs_z(alpha)
    return (m.tn * rho + math.log(norm_sf(z + rho) / alpha)
            - math.log1p(-zeta))


# ---------------------------------------------------------------------------
# Wealth law a_1 e^{-q_1 xi} + a_2 e^{-q_2 xi}, xi ~ N(mean, sd^2)
# ---------------------------------------------------------------------------

class MixtureLaw:
    """Decreasing function of one Gaussian; quantiles and tail means exact."""

    def __init__(self, terms, mean: float, sd: float):
        self.terms, self.mean, self.sd = terms, mean, sd

    def at(self, xi: float) -> float:
        return sum(a * math.exp(-q * xi) for a, q in self.terms)

    def _tail(self, k: float, c: float) -> float:
        """E[e^{-k xi}; xi >= c]."""
        mu, s = self.mean, self.sd
        return math.exp(-k * mu + 0.5 * k * k * s * s) * norm_sf((c - mu) / s + k * s)

    def risk(self, alpha: float, n: int) -> tuple:
        """(lambda, tail mean, s.e. of the empirical quantile, s.e. of the
        empirical tail mean) for n independent samples."""
        if self.sd == 0.0:
            w = self.at(self.mean)
            return w, w, 0.0, 0.0
        z = -abs_z(alpha)              # upper (1-alpha)-quantile of xi is -z_a
        c = self.mean - z * self.sd
        lam = self.at(c)
        tail1 = sum(a * self._tail(q, c) for a, q in self.terms)
        tail2 = sum(a * b * self._tail(q + p, c)
                    for a, q in self.terms for b, p in self.terms)
        tail_mean = tail1 / alpha
        slope = sum(q * a * math.exp(-q * c) for a, q in self.terms)
        density = math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi) / (self.sd * slope)
        se_q = math.sqrt(alpha * (1.0 - alpha) / n) / density
        # influence function U = X 1{X<=lam} + lam (alpha - 1{X<=lam})
        eu2 = tail2 + 2.0 * lam * (alpha - 1.0) * tail1 + lam * lam * alpha * (1.0 - alpha)
        var_u = max(eu2 - tail1 * tail1, 0.0)
        se_m = math.sqrt(var_u / n) / alpha
        return lam, tail_mean, se_q, se_m
