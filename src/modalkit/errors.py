"""Exception types shared across the library."""


class ModalkitError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(ModalkitError):
    """Input text does not match the expected grammar.

    Carries ``message`` and ``position``, the character offset of the
    offending token in the whole text that was parsed.  One exception: a
    progression file that is not UTF-8 has no text yet, so its error carries
    the byte offset of the first bad byte.
    """

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class InternalError(ModalkitError):
    """An internal consistency check failed; indicates a bug."""


class NotAMode(ModalkitError):
    """A seven-note scale whose degrees 1-3-5-7 stack to no seventh chord."""


class NotInterleavable(ModalkitError):
    """Base chord and tension chord do not interleave into a modal scale."""


class StrandMismatch(ModalkitError):
    """Braid words over different strand counts cannot be combined."""


class PatternMismatch(ModalkitError):
    """A rewrite rule's pattern does not match at the requested position."""


class InvalidBraid(ModalkitError, ValueError):
    """A braid word or rewrite is asked for with fewer than one strand, a
    letter sign other than +1/-1, or an unknown rule name."""


class IndexOutOfRange(ModalkitError, ValueError):
    """An index lies outside its range: a braid generator outside
    [1, strands - 1], or a scale degree outside 1..7."""


class SizeMismatch(ModalkitError):
    """Chords of different sizes cannot be voice-led without padding."""
