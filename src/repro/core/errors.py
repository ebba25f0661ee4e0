"""Exception types raised by the simulation core."""


class SimulationError(Exception):
    """Base class for simulation-core errors."""


class InvalidLoadVector(SimulationError, ValueError):
    """Raised when an initial load vector, or a load factory's
    parameter, fails validation."""


class InvalidSendMatrix(SimulationError):
    """Raised when a balancer emits a malformed sends matrix."""


class NegativeLoadError(SimulationError):
    """Raised when a balancer tries to send more tokens than a node holds.

    Algorithms that legitimately overdraw (the paper's "negative load"
    processes, e.g. randomized edge rounding [18] or continuous-mimicking
    [4]) must declare ``allows_negative = True`` to opt out of this guard.
    """


class ConservationError(SimulationError):
    """Raised when a round does not conserve the total number of tokens."""


class InvalidInjection(SimulationError):
    """Raised when a dynamic-workload injector breaks its contract.

    Injector deltas must be integer vectors of the loads' shape and may
    never drain a node below zero (departures are clipped by well-behaved
    injectors such as ``random_churn``; a scripted stream that overdraws
    is a bug in the stream).
    """


class BindingError(SimulationError):
    """Raised when a balancer is bound to an incompatible graph."""
