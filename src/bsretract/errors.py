"""Exception taxonomy shared by all modules."""


class BsretractError(Exception):
    """Base class for all library errors."""


class SingularMatrix(BsretractError):
    """A matrix required to be invertible is singular to working precision."""


class NotPositiveDefinite(BsretractError):
    """A matrix required to be positive definite has a non-positive eigenvalue."""


class NoConvergence(BsretractError):
    """An iterative eigenvalue computation exhausted its budget."""


class NotARootOfUnity(BsretractError):
    """No root of unity of admissible order lies within tolerance."""


class InvalidOrbit(BsretractError):
    """Orbit data do not satisfy the defining modular recursion."""


class GroupMismatch(BsretractError):
    """Two representations of different groups cannot be combined."""


class NotFiniteOrder(BsretractError):
    """Matrix does not generate a finite cyclic group within tolerance."""


class NotNormalizing(BsretractError):
    """No power of B matches A.B.A^-1 within tolerance."""


class PolarObstruction(BsretractError):
    """Positive polar factor fails to commute with B; input is not in the fiber."""


class PipelineStageError(BsretractError):
    """A pipeline stage failed; carries the stage name and partial diagnostics."""

    def __init__(self, stage, diagnostics, message):
        super().__init__(f"stage '{stage}': {message}")
        self.stage = stage
        self.diagnostics = diagnostics
