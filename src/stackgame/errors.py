"""Exception hierarchy shared by all solver modules."""

import math
import numbers


class StackgameError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(StackgameError):
    """A parameter record violates its validity invariants."""


def require_finite(record, names) -> None:
    """Raise ParameterError naming the first of record's fields that is not finite."""
    for name in names:
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ParameterError(f"{name} must be finite, got {value}")


def require_int(record, name: str, minimum: int) -> None:
    """Raise ParameterError unless record's field `name` is an integer (not a bool) >= minimum."""
    value = getattr(record, name)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ParameterError(f"{name} must be an int >= {minimum}, got {value!r}")


def require_positive(**values: float) -> None:
    """Raise ParameterError naming the first keyword whose value is not finite and > 0."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ParameterError(f"{name} must be finite and > 0, got {value}")


class ConfigurationError(StackgameError):
    """A grid / solver configuration is unusable (e.g. odd Simpson grid)."""


class BracketError(StackgameError):
    """Bisection bracket does not enclose a sign change."""


class HypothesisViolationError(StackgameError):
    """Model-2 saddle hypothesis (negative determinant of the state-costate
    matrix, i.e. discriminant > r^2) fails for the given parameters."""


class IntegrationBlowupError(StackgameError):
    """Non-finite value produced during deterministic ODE integration."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"non-finite state at step {step} (t={t:.6g})")


class ClosedFormOverflowError(StackgameError):
    """An exponential of a closed-form solution leaves the float range."""


class IllPosedBVPError(StackgameError):
    """Singular (or numerically singular) boundary matrix in a two-point solve."""

    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(f"ill-posed boundary system, condition number {cond:.3e}")


class RiccatiBlowupError(StackgameError):
    """Backward Riccati integration blew up before reaching t=0."""

    def __init__(self, t_blowup: float):
        self.t_blowup = t_blowup
        super().__init__(f"Riccati solution blew up near t={t_blowup:.6g}")


class SimulationBlowupError(StackgameError):
    """Non-finite value produced during Monte Carlo path simulation."""

    def __init__(self, path_index: int, step: int):
        self.path_index = path_index
        self.step = step
        super().__init__(f"non-finite value on path {path_index} at step {step}")


class NoDeterrentError(StackgameError):
    """No penalty rate in the admissible range deters defection."""
