"""Normalized Levenshtein similarity for fuzzy value comparison.

The 0.85 threshold is tuned so a single-character typo in a word of
length >= 7 still matches while short substitutions ("3pm" vs "noon")
do not.

``levenshtein`` is the exact unit-cost edit distance, computed by Myers'
bit-vector algorithm (Myers 1999, JACM 46(3)) in Hyyrö's 2001 formulation
over Python ints: after the common prefix and suffix are stripped, the
shorter string becomes the pattern, one bit per character, and each
character of the longer string updates the whole DP column at once.
``values_match`` answers equal strings at once and rejects a pair whose
length gap alone already fails the threshold, since the distance is at
least that gap; only the remaining pairs pay for the distance.
"""

from __future__ import annotations

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


def values_match(pred: str, gold: str) -> bool:
    """Symmetric fuzzy equality on canonicalized strings."""
    if pred == gold:
        return True
    longest = max(len(pred), len(gold))
    if 1.0 - abs(len(pred) - len(gold)) / longest < MATCH_THRESHOLD:
        return False
    return 1.0 - levenshtein(pred, gold) / longest >= MATCH_THRESHOLD
