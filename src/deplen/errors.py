"""Exception types shared across the toolkit."""


class DeplenError(Exception):
    """Base class for all toolkit errors."""


class CycleError(DeplenError):
    """The head relation contains a cycle."""


class MultiRootError(DeplenError):
    """Zero, or more than one, token marked as root."""


class DisconnectedError(DeplenError):
    """A head reference points outside the sentence."""


class ParseError(DeplenError):
    """Malformed CoNLL-U input."""

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class NonLeafPunctuationError(DeplenError):
    """A punctuation token has dependents, so it cannot be dropped."""


class EmptyCorpusError(DeplenError):
    """No dependencies to aggregate over."""


class DomainError(DeplenError):
    """A cost function is undefined at an observed distance."""


class NonMonotoneError(DeplenError):
    """A cost table decreases somewhere on its domain."""


class SizeMismatchError(DeplenError):
    """The two multisets to pair differ in size or are empty."""


class TooLargeError(DeplenError):
    """Input exceeds the size bound of an exhaustive routine."""


class InfeasibleConstraintsError(DeplenError):
    """No linear order satisfies the given constraints."""


class RangeError(DeplenError):
    """A scenario parameter lies outside its supported range."""
