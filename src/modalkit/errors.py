"""Exception types shared across the library."""


class ModalkitError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(ModalkitError):
    """Input text does not match the expected grammar.

    Carries ``message`` and ``position``, the character offset of the
    offending token in the whole text that was parsed.
    """

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class NotAMode(ModalkitError):
    """Notes that do not split into a mode: a seven-note scale whose degrees
    1-3-5-7 stack to no seventh chord, or, from ``recompose``, a base and a
    tension chord that are not degrees 1-3-5-7 and 2-4-6 of one scale."""


class StrandMismatch(ModalkitError):
    """Braid words over different strand counts cannot be combined."""


class PatternMismatch(ModalkitError):
    """A rewrite rule's pattern does not match at the requested position."""


class InvalidBraid(ModalkitError, ValueError):
    """A braid word or rewrite is asked for with a strand count that is no
    integer or is below one, letters that are no sequence, a letter that is
    not a (generator index, sign) pair, a letter sign other than +1/-1, or an
    unknown rule name."""


class InvalidProgression(ModalkitError, ValueError):
    """A progression entry that is not a (label, root, Chord) triple: a
    tuple of a str label, a root and a Chord."""


class IndexOutOfRange(ModalkitError, ValueError):
    """An index lies outside its range: a braid generator index that is not
    an integer or lies outside [1, strands - 1], a scale degree outside 1..7
    or not an integer, a chord note that is not an integer, a voice or a
    progression root that is no pitch class in 0..11 (an unhashable root
    such as [1] included), or a root that is not an integer where a root
    keys a table of the theory."""


class SizeMismatch(ModalkitError):
    """A voice leading's source and target have different numbers of voices."""


class CrossingLeading(ModalkitError):
    """``braid_of_leading`` was given a leading whose pairing crosses (a
    higher voice ends below a lower one); its voices' walks would not land
    every voice on its target, so it has no word here."""
