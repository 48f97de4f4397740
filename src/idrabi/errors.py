"""Exceptions shared across the package."""


class DivergentRegimeError(ValueError):
    """Raised when a closed form is requested outside its validity window g < omega/2."""


class NonDegenerateQubitError(ValueError):
    """Raised when a construction that requires omega0 = 0 gets a split qubit."""


class EigensolverError(RuntimeError):
    """LAPACK's symmetric eigensolver reported a failure (info > 0).

    The message is LAPACK's, as numpy raised it; the original
    ``numpy.linalg.LinAlgError`` is the exception's ``__cause__``.
    """
