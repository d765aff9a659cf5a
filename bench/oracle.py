"""Answers to count and locate computed without any rlxt code.

The trie of a Format A corpus has one node per distinct prefix of its
lines, the root being the empty prefix. Pre-order visits children in label
(byte) order, so a node's pre-order id is 1 plus the rank of its prefix in
byte order. Co-lex order is the byte order of the reversed prefixes, so the
nodes whose path ends with P are the contiguous run of reversed prefixes
that start with reversed P, listed in co-lex order.
"""

from __future__ import annotations

from bisect import bisect_left


def _prefix_end(key):
    """Smallest byte string greater than every string that starts with key."""
    key = key.rstrip(b"\xff")
    if not key:
        return None
    return key[:-1] + bytes([key[-1] + 1])


class ReversedPrefixOracle:
    def __init__(self, lines):
        prefixes = {b""}
        for line in lines:
            prefixes.update(line[:k] for k in range(1, len(line) + 1))
        ordered = sorted(prefixes)
        pre_id = {p: k + 1 for k, p in enumerate(ordered)}
        by_rev = sorted((p[::-1], pre_id[p]) for p in ordered)
        self.rev = [r for r, _ in by_rev]
        self.ids = [u for _, u in by_rev]
        self.n = len(ordered)
        self.depth = max(len(p) for p in ordered)

    def _range(self, pattern):
        key = bytes(pattern)[::-1]
        lo = bisect_left(self.rev, key)
        end = _prefix_end(key)
        hi = len(self.rev) if end is None else bisect_left(self.rev, end)
        return lo, hi

    def count(self, pattern):
        lo, hi = self._range(pattern)
        return hi - lo

    def locate(self, pattern):
        lo, hi = self._range(pattern)
        return self.ids[lo:hi]
