"""Exception hierarchy.

Split by how the CLI maps failures to exit codes: ParseError (malformed
input document, exit 2), ValidationError (well-formed but inadmissible
input, exit 3), NumericalError and subclasses (admissible input, failed
computation, exit 4).
"""

from __future__ import annotations


class MatszegoError(Exception):
    """Base class for all package errors."""


class ParseError(MatszegoError):
    """Input document is malformed (bad JSON, wrong shape, missing field)."""


class ValidationError(MatszegoError):
    """Input parses but violates an admissibility constraint."""


class MassOnSupport(ValidationError):
    """A point mass sits inside [-2, 2]."""


class NumericalError(MatszegoError):
    """A numerical operation failed on admissible input."""


class NotHermitian(NumericalError):
    """Matrix expected Hermitian deviates beyond tolerance."""


class NegativeEigenvalue(NumericalError):
    """Matrix expected positive semi-definite has an eigenvalue below -tol."""


class NotPD(NumericalError):
    """Matrix (or weight sample) expected positive definite is not."""


class Singular(NumericalError):
    """Matrix expected invertible is numerically singular (index: the first in a stack)."""

    def __init__(self, message: str = "", index: int = 0):
        super().__init__(message)
        self.index = index


class AliasedIndex(NumericalError):
    """Requested Fourier index |n| >= M/2 cannot be resolved on an M-grid."""


class DimensionMismatch(NumericalError):
    """Operands have incompatible matrix dimensions."""


class LostPositivity(NumericalError):
    """Gram matrix in the recurrence lost positive definiteness."""


class LostOrthogonality(NumericalError):
    """Recurrence output fails its orthonormality or three-term certificate."""


class NoConvergence(NumericalError):
    """Iteration failed to reach its tolerance; message carries the best residual."""


class RadiusExceeded(NumericalError):
    """Evaluation outside the closed unit disk, or a verification grid past radius 0.99."""


class SingularBoundary(NumericalError):
    """Boundary value required invertible is numerically singular."""


class PoleAtReflection(NumericalError):
    """Evaluation point collides with a reflected pole 1/conj(z_k)."""


class DuplicatePole(ValidationError):
    """Two Blaschke-Potapov states share the same pole."""


class DegenerateFrame(ValidationError):
    """Subspace frame has (numerically) dependent columns."""


class NotSimplePole(NumericalError):
    """Residue extraction detected a pole of order >= 2."""


class KernelMismatch(NumericalError):
    """Kernel of an extracted residue disagrees with the prescribed subspace."""
