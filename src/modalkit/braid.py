"""Braid words over n strands: Artin generators, rewriting and invariants.

A word is a sequence of signed generators s_i (1 <= i < n); s_i crosses the
strands at positions i and i+1.  Words act on positions left to right: the
first letter is the crossing nearest the start of the braid.  The library
computes necessary conditions for braid equality (permutation and writhe);
the test suite proves equality exactly with Artin's action on a free group.

A word is checked once, where its letters come from outside: when it is
built, copied or unpickled.  A word built here from checked words, or from
tokens ``parse_word`` knows, is built by ``BraidWord._make``, with no second
check (see ``pitch._Value``).
"""

from __future__ import annotations

import operator

from .errors import (
    IndexOutOfRange,
    InvalidArgument,
    InvalidBraid,
    ParseError,
    PatternMismatch,
    StrandMismatch,
)
from .pitch import _int, _Table, _Value

Letter = tuple[int, int]  # (generator index, sign)


class BraidWord(_Value, letters=()):
    """A word of signed generators on ``strands`` strands.

    The strand count is an integer of at least 1, and each letter is a pair
    (generator index, sign) with an integer index in [1, strands - 1] and a
    sign equal to +1 or -1, stored as that int.  The letters are stored as a
    tuple; letters that are no sequence, such as 5, are refused.
    """

    __slots__ = {"strands": _int, "letters": object}

    def _finish(self):
        """Each letter valid on the strand count, stored as its int letter."""
        try:
            letters = tuple(self.letters)
        except TypeError:  # no sequence, such as 5
            raise InvalidBraid(f"letters {self.letters!r} are not a sequence") from None
        n = self.strands
        if n < 1:
            raise InvalidBraid("need at least one strand")
        object.__setattr__(self, "letters", tuple([_check(letter, n) for letter in letters]))

    def __len__(self) -> int:
        return len(self.letters)


def _check(letter, strands: int) -> Letter:
    """The int letter equal to ``letter`` on ``strands`` strands; refused unless valid."""
    if not (isinstance(letter, tuple) and len(letter) == 2):
        raise InvalidBraid(f"letter {letter!r} is not a (generator index, sign) pair")
    index, sign = letter
    i = _int(index, "generator index")
    if not 1 <= i <= strands - 1:
        raise IndexOutOfRange(f"generator s{i} needs {i + 1} strands, have {strands}")
    if sign not in (1, -1):
        raise InvalidBraid(f"sign must be +1 or -1, got {sign}")
    return i, 1 if sign == 1 else -1


def _checked(w) -> BraidWord:
    """``w`` when it is a BraidWord, so checked when built; a subclass's word, whose
    class may check less, checked again as a BraidWord; InvalidBraid for any other."""
    if type(w) is BraidWord:
        return w
    if isinstance(w, BraidWord):
        return BraidWord(w.strands, w.letters)
    raise InvalidBraid(f"{type(w).__name__} is not a BraidWord")


class BraidInvariants(_Value):
    """Necessary conditions for braid equality: the permutation, 1-based
    (start position p ends at ``permutation[p-1]``), and the writhe."""

    __slots__ = {"permutation": (_int,), "writhe": _int}


def concatenate(first: BraidWord, *rest: BraidWord) -> BraidWord:
    """The words read one after another; all must have the same strand count."""
    words = [_checked(w) for w in (first, *rest)]
    strands = words[0].strands
    for w in words:
        if w.strands != strands:
            raise StrandMismatch(f"{strands} strands vs {w.strands}")
    return BraidWord._make(strands, tuple(letter for w in words for letter in w.letters))


_sign = operator.itemgetter(1)


def invariants(w: BraidWord) -> BraidInvariants:
    """The word's permutation and writhe, equal for equal braids.

    The permutation is 1-based: the strand that starts at position p ends at
    ``permutation[p-1]``.  The writhe is the sum of the letters' signs, the
    positive crossings minus the negative ones.
    """
    w = _checked(w)
    occupant = list(range(1, w.strands + 1))  # occupant[s-1]: the start of the strand at slot s
    for index, _ in w.letters:
        occupant[index - 1], occupant[index] = occupant[index], occupant[index - 1]
    position = [0] * w.strands
    for slot, start in enumerate(occupant, start=1):
        position[start - 1] = slot
    # both fields are ints derived here, so _make skips the check
    return BraidInvariants._make(tuple(position), sum(map(_sign, w.letters)))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel all adjacent s_i s_i^-1 pairs (a fixed point of free_cancel)."""
    w = _checked(w)
    stack: list[Letter] = []
    for letter in w.letters:
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return BraidWord._make(w.strands, tuple(stack))


# Each rule's window: how many letters it reads from ``at`` on, and their name.
_WINDOWS = {"free_cancel": (2, "pair"), "p1_swap": (2, "pair"), "p2_slide": (3, "triple")}


def rewrite_step(w: BraidWord, rule: str, at: int) -> BraidWord:
    """Apply one relation at a position: free_cancel, p1_swap or p2_slide.

    free_cancel removes an adjacent inverse pair; p1_swap commutes two
    generators with |i - j| > 1; p2_slide turns s_i s_{i+1} s_i into
    s_{i+1} s_i s_{i+1} (or back), with a uniform sign.  A window of letters
    from ``at`` on that leaves the word, or does not fit the rule, is a PatternMismatch;
    the position ``at`` is an integer.
    """
    w = _checked(w)
    try:
        width, window = _WINDOWS[rule]
    except (KeyError, TypeError):  # no rule name, such as 'swap' or an unhashable [1]
        raise InvalidBraid(f"unknown rule {rule!r}") from None
    at = _int(at, "position")
    if not 0 <= at <= len(w) - width:
        raise PatternMismatch(f"no letter {window} at {at}")
    (i, si), (j, sj), *third = w.letters[at:at + width]
    if rule == "free_cancel":
        if i != j or si != -sj:
            raise PatternMismatch(f"letters at {at} are not an inverse pair")
        replacement = ()
    elif rule == "p1_swap":
        if abs(i - j) <= 1:
            raise PatternMismatch(f"generators s{i}, s{j} do not commute")
        replacement = ((j, sj), (i, si))
    else:
        if not (third == [(i, si)] and sj == si and abs(i - j) == 1):
            raise PatternMismatch(f"letters at {at} are not a braid-relation triple")
        replacement = ((j, sj), (i, si), (j, sj))
    return BraidWord._make(w.strands, w.letters[:at] + replacement + w.letters[at + width:])


def parse_word(text: str, strands: int) -> BraidWord:
    """Parse whitespace-separated tokens ``s<k>`` / ``s<k>^-1``, ``k`` in ASCII digits.

    Tokens that all spell, as ``serialize_word`` does, a valid letter on an int
    strand count in 1..64 are looked up and build a word that needs no check;
    any other text is read token by token and the word is checked.  Text
    that is no str, such as 5 or bytes, is an InvalidArgument.
    """
    try:
        tokens = str.split(text)
    except TypeError:
        raise InvalidArgument(f"braid text is a str, not {type(text).__name__}") from None
    if type(strands) is int and 0 < strands <= _TABLED_STRANDS:
        known = _LETTERS[strands]
        try:
            if len(tokens) > 1:  # one key would give itemgetter's bare letter, not a 1-tuple
                return BraidWord._make(strands, operator.itemgetter(*tokens)(known))
            return BraidWord._make(strands, tuple([known[token] for token in tokens]))
        except KeyError:  # a token this strand count does not spell
            pass
    return BraidWord(strands, tuple([_letter(text, tokens, k) for k in range(len(tokens))]))


def _letter(text: str, tokens: list[str], k: int) -> Letter:
    """The letter of ``tokens[k]``: ``s``, ASCII digits, then ``^-1`` for an inverse."""
    token = tokens[k]
    digits = token[1:].removesuffix("^-1")
    index = None
    if token.startswith("s") and digits.isascii() and digits.isdigit():
        try:
            index = int(digits)
        except ValueError:  # more digits than int() converts, see sys.set_int_max_str_digits
            pass
    if index is None:
        end = 0
        for earlier in tokens[:k + 1]:  # the offset of the k-th token, found left to right
            start = text.find(earlier, end)
            end = start + len(earlier)
        raise ParseError(f"bad braid token {token!r}", start)
    return index, -1 if token.endswith("^-1") else 1


def _token(letter: Letter) -> str:
    i, sign = letter
    return f"s{i}" if sign > 0 else f"s{i}^-1"


def _block(n: int, letter: Letter) -> str:
    i, sign = letter
    left, right = "| " * (i - 1), " |" * (n - i - 1)
    middle = " / " if sign > 0 else " \\ "
    return f"{left}\\ /{right}\n{left}{middle}{right}\n{left}/ \\{right}\n"


# Per letter (generator index, sign) its token, as serialize_word spells it, and
# per strand count each valid letter by that token, 2 * (n - 1) on n strands, for
# parse_word to look up.  Each is read only for words on at most 64 strands, so it
# holds at most the letters of those counts; a word on more strands derives its
# tokens per call, and nothing is kept.
_TABLED_STRANDS = 64
_TOKENS = _Table(_token)
_LETTERS = _Table(lambda n: {_token((i, sign)): (i, sign) for i in range(1, n) for sign in (1, -1)})


def serialize_word(w: BraidWord) -> str:
    """The word as text: its letters' tokens, ``s<k>`` or ``s<k>^-1``, joined by one space.

    The empty word is the empty string.  ``parse_word`` of the text on the
    word's strand count gives the word back.
    """
    w = _checked(w)
    letters = w.letters
    if w.strands > _TABLED_STRANDS:
        return " ".join(map(_token, letters))
    if len(letters) > 1:  # one key would give itemgetter's bare token, joined per character
        return " ".join(operator.itemgetter(*letters)(_TOKENS))
    return " ".join(map(_TOKENS.__getitem__, letters))


def render_ascii(w: BraidWord) -> str:
    """Draw the braid top to bottom, one column of ``|`` per strand.

    Each letter takes three rows; a base row of plain strands comes first,
    so the output always has 3 * len(word) + 1 lines.  Positive crossings
    show ``/`` in the middle row, negative ones ``\\``.
    """
    w = _checked(w)
    n = w.strands
    blocks = _Table(lambda letter: _block(n, letter))  # per call, so no drawing is kept
    return "".join([" ".join("|" * n) + "\n", *map(blocks.__getitem__, w.letters)])
