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
    """A braid word or rewrite is asked for with fewer than one strand, letters
    that are no sequence, a letter that is not a (generator index, sign)
    pair, a sign other than +1/-1, an unknown rule name, or a value that is
    no BraidWord where a word is read."""


class InvalidArgument(ModalkitError, TypeError):
    """A library call or a value type is given a value of the wrong kind: a
    field or argument that is no instance of its declared class, as in
    ``Triad(0, ChordQuality.DOM7)`` or ``recompose((0, 4), ...)``; text that
    is no ``str``; values that are no collection where a collection is read,
    as in ``Chord(5)``; or a ``DegreeLabel`` pair that the figure does not
    name, such as (1, 5)."""


class InvalidProgression(ModalkitError, ValueError):
    """A progression entry that is not a (label, root, Chord) triple: a
    tuple of a str label, a root and a Chord."""


class IndexOutOfRange(ModalkitError, ValueError):
    """A number is no integer, or lies outside its range.

    Every integer and pitch class the library reads, in a value-type field or
    a function argument, is the int that ``operator.index`` returns (a pitch
    class is that int mod 12), so 5.0, '5' and [1] are refused as
    ``<what> <value> is not an integer``.  The ranges are a braid generator's
    [1, strands - 1] and ``harmonize``'s degrees 1..7."""


class SizeMismatch(ModalkitError):
    """A voice leading's source and target have different numbers of voices."""


class CrossingLeading(ModalkitError):
    """``braid_of_leading`` was given a leading whose pairing crosses (a
    higher voice ends below a lower one); its voices' walks would not land
    every voice on its target, so it has no word here."""
