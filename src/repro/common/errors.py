"""Exception hierarchy for the repro package.

Every error raised deliberately by this package derives from
:class:`ReproError`, so callers can catch the whole family with one
``except`` clause while still letting programming errors (``TypeError``
and friends) propagate untouched.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter is out of its legal range.

    Also derives from :class:`ValueError` so generic validation code that
    expects ``ValueError`` keeps working.
    """


class CapacityError(ReproError):
    """A fixed-capacity structure was asked to hold more than it can."""


class TraceFormatError(ReproError):
    """A saved filter or incident bundle does not match its on-disk format."""
