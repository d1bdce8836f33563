"""Normalized Levenshtein similarity for fuzzy value comparison.

The 0.85 threshold is tuned so a single-character typo in a word of
length >= 7 still matches while short substitutions ("3pm" vs "noon")
do not.

``levenshtein`` is the exact unit-cost edit distance, computed by Myers'
bit-vector algorithm (Myers 1999, JACM 46(3)) in Hyyrö's 2001 formulation
over Python ints: after the common prefix and suffix are stripped, the
shorter string becomes the pattern, one bit per character, and each
character of the longer string updates the whole DP column at once.

``values_match`` decides a pair by ``1.0 - d / longest >= MATCH_THRESHOLD``
on the edit distance ``d``, and settles most pairs from cheaper bounds on
``d`` first, in this order:

1. equal strings match;
2. the length gap is a lower bound on ``d``, so a gap that fails the
   threshold rejects;
3. for equal lengths, the Hamming distance is an upper bound on ``d``
   (substitutions alone turn one string into the other), so a Hamming
   distance that passes the threshold accepts;
4. the bag distance ``longest - char_overlap(pred, gold)`` is a lower
   bound on ``d`` (Bartolini, Ciaccia and Patella 2002: it is 0 for equal
   strings and one edit moves it by at most one), so a bag distance that
   fails the threshold rejects;
5. only the pairs left over pay for ``levenshtein``.

Every bound goes through the same float expression as ``d`` itself.
Correctly rounded division and subtraction are monotone, so an upper bound
that passes, or a lower bound that fails, gives the very decision ``d``
would: no pair can flip.
"""

from __future__ import annotations

import operator

MATCH_THRESHOLD = 0.85


def levenshtein(a: str, b: str) -> int:
    """Edit distance with unit insert/delete/substitute costs."""
    if a == b:
        return 0
    shortest = min(len(a), len(b))
    start = 0
    while start < shortest and a[start] == b[start]:
        start += 1
    end = 0
    while end < shortest - start and a[-1 - end] == b[-1 - end]:
        end += 1
    a = a[start : len(a) - end]
    b = b[start : len(b) - end]
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return len(b)

    peq: dict[str, int] = {}
    bit = 1
    for char in a:
        peq[char] = peq.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    vp, vn, dist = mask, 0, len(a)
    for char in b:
        eq = peq.get(char, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | (~(xh | vp) & mask)
        hn = vp & xh
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = (hp << 1) | 1
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return dist


def char_overlap(a: str, b: str) -> int:
    """Size of the multiset intersection of the characters of ``a`` and ``b``."""
    if a == b:
        return len(a)
    chars = set(a)
    return sum(map(min, map(a.count, chars), map(b.count, chars)))


def values_match(pred: str, gold: str) -> bool:
    """Symmetric fuzzy equality on canonicalized strings."""
    if pred == gold:
        return True
    longest = max(len(pred), len(gold))
    if 1.0 - abs(len(pred) - len(gold)) / longest < MATCH_THRESHOLD:
        return False
    if len(pred) == len(gold) and 1.0 - sum(map(operator.ne, pred, gold)) / longest >= MATCH_THRESHOLD:
        return True
    if 1.0 - (longest - char_overlap(pred, gold)) / longest < MATCH_THRESHOLD:
        return False
    return 1.0 - levenshtein(pred, gold) / longest >= MATCH_THRESHOLD
