"""Exception types shared across the package."""

from __future__ import annotations


class CcbfError(Exception):
    """Base class for every error this package raises on purpose."""


class DimensionError(CcbfError, ValueError):
    """A vector or matrix argument has the wrong shape for its node."""


class NumericsError(CcbfError, ArithmeticError):
    """A quantity became non-finite during evaluation."""


class EmptyRegionError(CcbfError):
    """An operation that needs a nonempty control region got an empty one."""


class GeometryConvergenceError(CcbfError):
    """Projection iterations failed to converge.

    Carries the last iterate and residual so callers can see how close the
    solver got before giving up.
    """

    def __init__(self, message: str, last_iterate=None, residual=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.residual = residual


class ProtocolStateError(CcbfError):
    """A snapshot, ledger, or message set is inconsistent with the graph."""


class DegenerateWeightsError(CcbfError):
    """Every eligible neighbor weight is zero but there is capability to split.

    Only `collab.partition` raises it; `collaborate` and both step kernels
    split uniformly instead, with a warning."""


class ProtocolStallError(CcbfError):
    """The negotiation hit its sub-round cap without settling.

    `ledgers` holds the full per-node ledger map at the time of the stall
    when the per-node protocol raises it, and is None when the array
    protocol does.
    """

    def __init__(self, message: str, ledgers=None):
        super().__init__(message)
        self.ledgers = ledgers


class TerminallyInfeasibleError(CcbfError):
    """Some node cannot be made safe even with every helper pinned.

    `nodes` lists the node ids whose deficit stayed negative after all of
    their in-neighbors were constrained.
    """

    def __init__(self, message: str, nodes=()):
        super().__init__(message)
        self.nodes = tuple(nodes)


class ConfigError(CcbfError):
    """Scenario text failed validation.

    `violations` is a list of (path, message) pairs, one per problem, so a
    bad file reports everything wrong with it at once.
    """

    def __init__(self, violations):
        self.violations = [(str(p), str(m)) for p, m in violations]
        text = "; ".join(f"{p}: {m}" for p, m in self.violations)
        super().__init__(text or "invalid configuration")
