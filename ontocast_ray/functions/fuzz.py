"""String-similarity kernel compatible with ``rapidfuzz.fuzz.ratio``.

The reference thresholds entity/predicate merging on ``fuzz.ratio``
(/root/reference/ontocast/tool/aggregate.py:543,732 with thresholds 85/90).
rapidfuzz's ``ratio`` is the normalized Indel similarity:

    ratio(a, b) = 100 * 2*LCS(a, b) / (len(a) + len(b))

(the Indel distance is ``len(a)+len(b) - 2*LCS``). We compute the true LCS
with Hyyrö's bit-parallel algorithm — O(ceil(n/w)*m) with Python bigints as
the bit vector — which, unlike ``difflib.SequenceMatcher`` (junk heuristics),
matches rapidfuzz's result exactly.
"""

from __future__ import annotations

from functools import lru_cache


def _lcs_length(a: str, b: str) -> int:
    """Longest-common-subsequence length (Hyyrö bit-parallel formulation)."""
    n = len(a)
    if n == 0 or len(b) == 0:
        return 0
    masks: dict[str, int] = {}
    bit = 1
    for ch in a:
        masks[ch] = masks.get(ch, 0) | bit
        bit <<= 1
    full = (1 << n) - 1
    v = full
    get = masks.get
    for ch in b:
        m = get(ch, 0)
        u = v & m
        v = ((v + u) | (v - u)) & full
    # LCS length = number of zero bits in v over the n-bit window.
    return n - (v & full).bit_count()


def ratio(s1: str, s2: str) -> float:
    """rapidfuzz-compatible normalized Indel similarity in [0, 100]."""
    total = len(s1) + len(s2)
    if total == 0:
        return 100.0
    return 200.0 * _lcs_length(s1, s2) / total


def ratio_at_least(s1: str, s2: str, threshold: float) -> bool:
    """Exact ``ratio(s1, s2) >= threshold`` with a length-bound fast path:
    LCS ≤ min(len1, len2), so the maximum possible ratio is
    200*min/(len1+len2) — if even that is below the threshold, skip the
    O(n*m) LCS entirely. Same result as computing ratio(), just cheaper on
    the (common) wildly-different-length pairs."""
    total = len(s1) + len(s2)
    if total == 0:
        return 100.0 >= threshold
    if 200.0 * min(len(s1), len(s2)) / total < threshold:
        return False
    return 200.0 * _lcs_length(s1, s2) / total >= threshold



_UNARY = [(1 << k) - 1 for k in range(9)]


@lru_cache(maxsize=65536)
def char_bag(s: str) -> tuple[int, int]:
    """``(code, overflow)``: the characters of ``s`` as a bag, for an LCS
    upper bound. Characters fall into 64 classes (code point mod 64); each
    class counts its occurrences in unary in an 8-bit slot of ``code``, and
    ``overflow`` holds the occurrences past 8. For any two strings,
    ``(code_a & code_b).bit_count() + overflow_a + overflow_b`` is at least
    the number of characters they share counted with multiplicity, which is
    at least their LCS length: a cheap exact pre-test for ``ratio``."""
    counts: dict[int, int] = {}
    for ch in set(s):
        slot = ord(ch) & 63
        counts[slot] = counts.get(slot, 0) + s.count(ch)
    code = overflow = 0
    for slot, k in counts.items():
        if k > 8:
            overflow += k - 8
            k = 8
        code |= _UNARY[k] << (slot * 8)
    return code, overflow
