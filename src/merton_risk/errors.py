"""Domain error types shared across the package, each with the exit code
and stderr label by which ``cli.main`` reports it.  The modules refuse
outside input with InputError, whatever the field, and name the field in
its message; cli's own parsing raises ValueError, reported alike."""

from __future__ import annotations


class MertonRiskError(Exception):
    """Base class for all domain errors."""

    exit_code, label = 1, "input error"


class InputError(MertonRiskError):
    """Outside input the program refuses; exit 1, "input error"."""


class NegativeArgument(MertonRiskError):
    """Argument required to be nonnegative."""


class ConvergenceFailure(MertonRiskError):
    """A root search failed to reach its residual target."""


class NegativeRate(MertonRiskError):
    """A solver hypothesis requires r_t >= 0 everywhere."""


class UnsupportedRegime(MertonRiskError):
    """Parameter combination outside every closed-form result."""


class NoClosedForm(MertonRiskError):
    """None of the paper's explicit optima applies; solve writes why."""

    exit_code, label = 2, "no closed-form solution"


class HypothesisViolated(NoClosedForm):
    """A structural hypothesis (e.g. |z_alpha| >= 2*theta-norm) fails."""


class ConditionViolated(NoClosedForm):
    """A named solvability condition fails; carries its numeric margin."""

    def __init__(self, condition: str, margin: float, detail: str = ""):
        self.condition = condition
        self.margin = float(margin)
        self.detail = detail
        msg = f"condition {condition} violated (margin {margin:.6g})"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NoClosedFormRegime(NoClosedForm):
    """Neither the loose-bound nor the tight-bound regime applies."""

    def __init__(self, margins: dict | None = None):
        self.margins = margins or {}
        super().__init__(
            "no closed-form regime applies; margins: "
            + ", ".join(f"{k}={v:.6g}" for k, v in self.margins.items())
        )


class EmptyFeasibleSet(MertonRiskError):
    """No grid-search candidate satisfies the risk constraint."""


class InsufficientPaths(MertonRiskError):
    """Too few Monte Carlo paths for a stable tail estimate."""

    exit_code, label = 2, "insufficient paths"


class UnsupportedSolution(MertonRiskError):
    """The solved optimum is of a kind the command cannot take."""

    exit_code, label = 2, "unsupported solution"


class ToleranceExceeded(MertonRiskError):
    """A verification residual exceeds its requested tolerance."""

    exit_code, label = 2, "verification tolerances exceeded"
