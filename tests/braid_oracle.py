"""Exact braid equality through Artin's action on a free group.

The braid group B_n acts faithfully on the free group F_n on x_1 .. x_n
(Artin, *Theory of braids*): s_i sends x_i to x_i x_{i+1} x_i^-1 and
x_{i+1} to x_i, and fixes every other generator, so s_i^-1 sends x_i to
x_{i+1} and x_{i+1} to x_{i+1}^-1 x_i x_{i+1}.  Two braid words are the
same braid exactly when they send every generator to the same freely
reduced word.

The oracle applies a word's letters in order to the images of the
generators.  That reads the word back to front against the usual
composition, which is still a one-to-one map of braids, so equal images
still decide equality.  It never imports ``modalkit.braid``: a word is any
sequence of (generator index, sign) letters.
"""

FreeWord = tuple[tuple[int, int], ...]  # (generator k, exponent +1 or -1)


def _reduce(word) -> FreeWord:
    stack: list[tuple[int, int]] = []
    for k, e in word:
        if stack and stack[-1] == (k, -e):
            stack.pop()
        else:
            stack.append((k, e))
    return tuple(stack)


def _inverse(word: FreeWord) -> FreeWord:
    return tuple((k, -e) for k, e in reversed(word))


def _artin(i: int, sign: int) -> dict[int, FreeWord]:
    """The images of x_i and x_{i+1} under s_i (sign 1) or s_i^-1 (sign -1)."""
    if sign == 1:
        return {i: ((i, 1), (i + 1, 1), (i, -1)), i + 1: ((i, 1),)}
    return {i: ((i + 1, 1),), i + 1: ((i + 1, -1), (i, 1), (i + 1, 1))}


def _substitute(word: FreeWord, moved: dict[int, FreeWord]) -> FreeWord:
    result: list[tuple[int, int]] = []
    for k, e in word:
        target = moved.get(k, ((k, 1),))
        result.extend(target if e == 1 else _inverse(target))
    return _reduce(result)


def image(strands: int, letters) -> tuple[FreeWord, ...]:
    """The reduced images of x_1 .. x_n under the braid ``letters``."""
    images = tuple(((k, 1),) for k in range(1, strands + 1))
    for i, sign in letters:
        moved = _artin(i, sign)
        images = tuple(_substitute(w, moved) for w in images)
    return images


def same_braid(u, v) -> bool:
    """Whether two words (anything with ``strands`` and ``letters``) are one braid."""
    return u.strands == v.strands and image(u.strands, u.letters) == image(v.strands, v.letters)
