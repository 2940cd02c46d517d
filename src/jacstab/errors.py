"""Exception types shared across the package."""


class JacstabError(Exception):
    """Base class for all domain errors raised by jacstab."""


class InvalidGraphError(JacstabError):
    """A dual graph violates a structural requirement (e.g. disconnected)."""


class MismatchedGraphError(JacstabError):
    """An operation mixed objects attached to different graphs."""


class UnknownEdgeError(JacstabError):
    """A sheaf datum references an edge id that is not in the graph."""


class PreconditionError(JacstabError):
    """An operation's stated precondition does not hold."""


class DegenerateParameterError(PreconditionError):
    """A stability parameter sits on a wall where stable != semistable."""


class TrivialTwistError(JacstabError):
    """The Abel-Jacobi twist vector is trivial."""


class IncompleteTableError(JacstabError):
    """A vine phi table does not cover all required vines."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(
            "phi table missing %d vine(s): %s"
            % (len(self.missing), ", ".join(str(v) for v in self.missing))
        )


class PhiConstructionError(JacstabError):
    """No admissible perturbation was found for a vine."""
