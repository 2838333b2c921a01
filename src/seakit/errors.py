"""Shared exception types."""


class NumericsError(RuntimeError):
    """A numerical procedure failed or left a residual above its tolerance.

    Raised by root extraction, spectral factorization, the Sylvester solve,
    pole-hit evaluation, and simulation divergence checks.  The message
    carries the offending quantity so callers can report it verbatim.
    """
