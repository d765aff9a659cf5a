"""In-memory trie model, construction, co-lexicographic sorting, and oracles.

Nodes are identified by their pre-order number 1..n (node 1 is the root);
a trie's shape is its depth sequence in that order. Edge labels are dense
codes: 0 is the reserved root sentinel (never labels an edge), 1..sigma-1
the distinct input bytes in increasing byte order (:class:`Alphabet`).

The brute-force helpers here (``oracle_locate``, reversed-path sorting) are
the ground truth everything else is tested against.
"""

from __future__ import annotations

import numpy as np

from .bits import concat_ranges
from .errors import DeterminismError, FormatError, PreorderError

SENTINEL = 0  # incoming label of the root; smaller than every edge label


class Alphabet:
    """Dense byte <-> label-code mapping. Code 0 is the root sentinel.

    ``code_of_byte`` is a 256-byte table: the code of each byte, and 0, which
    no byte maps to, for the bytes that are not in the alphabet."""

    __slots__ = ("byte_of_code", "code_of_byte")

    def __init__(self, used_bytes):
        used = sorted(set(int(b) for b in used_bytes))
        if any(b == 0 for b in used):
            raise FormatError("NUL byte is reserved and may not appear in input")
        if any(not 0 < b < 256 for b in used):
            raise FormatError("labels must be byte values 1..255")
        self.byte_of_code = np.array([0] + used, dtype=np.int64)
        table = bytearray(256)
        for code, b in enumerate(used, 1):
            table[b] = code
        self.code_of_byte = bytes(table)

    @classmethod
    def of_codes(cls, byte_of_code):
        """The alphabet mapping code k to ``byte_of_code[k]``: 0 for code 0,
        then strictly increasing bytes 1..255."""
        alphabet = cls(byte_of_code[1:])
        if alphabet.byte_of_code.tolist() != list(byte_of_code):
            raise FormatError("byte map is not 0 followed by strictly increasing bytes")
        return alphabet

    @property
    def sigma(self):
        """Alphabet size including the sentinel code 0."""
        return len(self.byte_of_code)

    def encode(self, data):
        """Map a byte string to label codes, as ``bytes``, or None if some
        byte is unmapped: one ``bytes.translate``, where 0 marks an unmapped
        byte."""
        codes = bytes(data).translate(self.code_of_byte)
        return None if 0 in codes else codes

    def decode(self, codes):
        return bytes(int(self.byte_of_code[c]) for c in codes)


class LabeledTrie:
    """Edge-labeled trie in pre-order form, given by its depth sequence:
    ``depth[1] == 0`` and ``1 <= depth[u] <= depth[u-1] + 1`` holds for the
    pre-order trees and for no other sequence, and u's parent is the last
    node before it one level up (:meth:`from_parents` takes parents instead).

    Arrays are 1-based (index 0 unused). ``label[1] == SENTINEL``. Children
    of each node are stored contiguously in ``child_ids`` sorted by label,
    which by the pre-order invariant is also ascending id order.
    """

    __slots__ = (
        "n", "parent", "label", "child_start", "child_ids", "alphabet",
        "depth", "_iso_sig", "_path_bytes",
    )

    def __init__(self, depth, label, alphabet, parent=None):
        """``parent``, if given, is ``_last_one_level_up(depth)`` already
        computed: :meth:`from_parents` has it from its own check."""
        self.depth = d = np.asarray(depth, dtype=np.int64)
        self.label = np.asarray(label, dtype=np.int64)
        self.n = n = len(d) - 1
        self.alphabet = alphabet
        if n < 1:
            raise FormatError("trie must contain at least the root")
        if self.label[1] != SENTINEL:
            raise FormatError("root must carry the sentinel label")
        ok = np.append(d[1] == 0, (d[2:] >= 1) & (d[2:] <= d[1:-1] + 1))
        if not ok.all():
            u = int(np.argmin(ok)) + 1
            raise PreorderError(f"node {u}: depth {int(d[u])} is out of pre-order")
        sentinel = np.flatnonzero(self.label[2:] == SENTINEL)
        if len(sentinel):
            raise FormatError(f"node {int(sentinel[0]) + 2}: sentinel label on an edge")
        self.parent = _last_one_level_up(d) if parent is None else parent
        kids = self.parent[2:]
        self.child_ids = np.argsort(kids, kind="stable") + 2
        self.child_start = np.zeros(n + 2, dtype=np.int64)
        np.cumsum(np.bincount(kids, minlength=n + 1), out=self.child_start[1:])
        self._check_child_labels()
        self._iso_sig = None
        self._path_bytes = None

    @classmethod
    def from_parents(cls, parent, label, alphabet):
        """The trie of a parent array, once it is known to be a pre-order
        trie; otherwise the error for the smallest offending node, naming
        its parent as given.

        Node u >= 2 is in pre-order iff (a) ``1 <= parent[u] < u``,
        (b) ``depth[u] <= depth[u-1] + 1`` and (c) ``parent[u]`` is the last
        node before u at depth ``depth[u] - 1``: (b) and (c) together say the
        parent lies on the root-to-(u-1) path. Depths are computed over the
        nodes before the first (a) failure, whose parents all point back.
        """
        try:
            ids = np.asarray(parent, dtype=np.int64)
        except OverflowError:  # an id past n fails the range check as -1 does
            ids = np.array([p if 0 <= p < len(parent) else -1 for p in parent], np.int64)
        label = np.asarray(label, dtype=np.int64)
        n = len(ids) - 1
        if n < 1 or label[1] != SENTINEL:
            return cls(ids, label, alphabet)  # which raises the root's error
        bad = np.flatnonzero((ids[2:] < 1) | (ids[2:] >= np.arange(2, n + 1)))
        m = int(bad[0]) + 1 if len(bad) else n  # nodes 1..m have parents before them
        first = m + 1  # smallest node failing (a), (b) or (c); n + 1 if none
        depth = _depths(ids[: m + 1])
        up = _last_one_level_up(depth)
        bad = np.flatnonzero((depth[2:] > depth[1:-1] + 1) | (up[2:] != ids[2 : m + 1]))
        if len(bad):
            first = int(bad[0]) + 2
        sentinel = np.flatnonzero(label[2:] == SENTINEL)
        if len(sentinel) and int(sentinel[0]) + 2 < first:
            raise FormatError(f"node {int(sentinel[0]) + 2}: sentinel label on an edge")
        if first <= m:
            raise PreorderError(f"node {first}: parent {int(ids[first])} "
                                "not on the current DFS path")
        if first <= n:
            raise PreorderError(f"node {first} has parent {int(parent[first])} "
                                f"outside 1..{first - 1}")
        return cls(depth, label, alphabet, up)

    def _check_child_labels(self):
        """Siblings carry distinct labels in ascending order; otherwise the
        error for the smallest offending parent (duplicates before order)."""
        kids = self.child_ids
        same = self.parent[kids[1:]] == self.parent[kids[:-1]]
        step = np.diff(self.label[kids])
        dup = self.parent[kids[1:][same & (step == 0)]]
        order = self.parent[kids[1:][same & (step < 0)]]
        u_dup = int(dup.min()) if len(dup) else self.n + 1
        u_order = int(order.min()) if len(order) else self.n + 1
        if u_dup <= u_order and u_dup <= self.n:
            raise DeterminismError(f"node {u_dup} has duplicate outgoing labels")
        if u_order <= self.n:
            raise PreorderError(f"node {u_order}: children not in label order")

    def children(self, u):
        return self.child_ids[self.child_start[u] : self.child_start[u + 1]]

    def out_labels(self, u):
        """Labels of u's outgoing edges, sorted ascending."""
        return self.label[self.children(u)]

    def degree(self, u):
        return int(self.child_start[u + 1] - self.child_start[u])

    def child_by_label(self, u, c):
        """Child of u along label c, or 0 if absent."""
        kids = self.children(u)
        labs = self.label[kids]
        k = np.searchsorted(labs, c)
        if k < len(kids) and labs[k] == c:
            return int(kids[k])
        return 0

    def path_codes(self, u):
        """Label codes on the root-to-u path (excluding the sentinel)."""
        out = []
        while u != 1:
            out.append(int(self.label[u]))
            u = int(self.parent[u])
        out.reverse()
        return out

    def path_byte_strings(self):
        """Root-to-node path as a byte string for every node (index 0 unused)."""
        if self._path_bytes is None:
            byte_of = self.alphabet.byte_of_code
            paths = [None, b""]
            for u in range(2, self.n + 1):
                paths.append(paths[self.parent[u]] + bytes([int(byte_of[self.label[u]])]))
            self._path_bytes = paths
        return self._path_bytes

    def subtree_sizes(self):
        return _subtree_sizes(self.parent, self.depth)

    def iso_signatures(self):
        """Canonical id per node: equal ids iff complete subtrees are isomorphic.

        Bottom-up interning of (label, child-signature) tuples; exact because
        the intern table is keyed on the tuples themselves.
        """
        if self._iso_sig is None:
            sig = np.zeros(self.n + 1, dtype=np.int64)
            intern = {}
            for u in range(self.n, 0, -1):
                kids = self.children(u)
                key = tuple((int(self.label[k]), int(sig[k])) for k in kids)
                code = intern.get(key)
                if code is None:
                    code = len(intern)
                    intern[key] = code
                sig[u] = code
            self._iso_sig = sig
        return self._iso_sig

    def to_edge_lines(self):
        """Format B serialization: first line n, then parent<TAB>label_byte."""
        byte_of = self.alphabet.byte_of_code
        lines = [str(self.n)]
        for u in range(2, self.n + 1):
            lines.append(f"{int(self.parent[u])}\t{int(byte_of[self.label[u]])}")
        return "\n".join(lines) + "\n"


def _depths(parent):
    """Depth of every node of a parent array (``parent[1] == 0``, the rest
    in 1..n, in any order) by pointer jumping: ceil(log2 depth) + 1 rounds
    over the whole array, or a ValueError past ceil(log2 n) + 1 rounds."""
    jump = parent.copy()
    jump[:2] = (0, 1)  # the root chains to itself
    dist = np.ones(len(parent), dtype=np.int64)  # dist[u]: levels from u up to jump[u]
    dist[:2] = 0
    for _ in range(max(len(parent) - 2, 1).bit_length() + 1):
        if not (jump[1:] != 1).any():
            return dist
        dist += dist[jump]
        jump = jump[jump]
    raise ValueError("a parent chain never reaches the root")


def _levels(depth):
    """Nodes 1..n grouped by depth, one id array per level from the root's."""
    return np.split(np.argsort(depth[1:], kind="stable") + 1,
                    np.cumsum(np.bincount(depth[1:]))[:-1])


def _subtree_sizes(parent, depth):
    """Nodes in every node's subtree (0 at index 0), summed bottom-up one
    depth level per pass, so ids need not be in pre-order."""
    size = np.ones(len(parent), dtype=np.int64)
    size[0] = 0
    for level in reversed(_levels(depth)[1:]):
        np.add.at(size, parent[level], size[level])
    return size


def _last_one_level_up(depth):
    """For every node u >= 2, the last node before u at depth ``depth[u] - 1``
    (0 if there is none): u's parent when the depths are a pre-order's.

    Ids ascend, so a stable argsort of the depths at their narrowest
    unsigned width (a radix sort up to 16 bits) sorts the (depth, id) keys.
    Each target (depth[u] - 1, u), which no node has, is a key less the
    same constant, so the targets lie in the keys' order too: one sorted
    ``searchsorted`` finds, for all of them, the key just below, and the
    answers are scattered back through the order."""
    n = len(depth) - 1
    order = np.argsort(depth[1:].astype(np.min_scalar_type(int(depth.max()))), kind="stable")
    level = depth[1:][order]
    key = level * (n + 1) + order  # (depth, id - 1), ascending
    below = np.searchsorted(key, key - (n + 1)) - 1  # the root's key precedes every target
    out = np.zeros(n + 1, dtype=np.int64)
    out[order + 1] = np.where(level[below] == level - 1, order[below] + 1, 0)
    return out


def _pair_lcps(data, lens):
    """LCP of every two neighbouring lines laid end to end in ``data`` with
    lengths ``lens``: each pair is gathered over its shorter length and
    compared, and a sorted ``searchsorted`` of the pairs' offsets among the
    mismatches finds each pair's first one."""
    m = np.minimum(lens[:-1], lens[1:])
    at = concat_ranges(np.cumsum(lens[:-1]) - lens[:-1], m)  # line i's first m[i] bytes
    head = data[at]
    at += np.repeat(lens[:-1], m)  # the same bytes of line i + 1
    mismatch = np.append(np.flatnonzero(head != data[at]), len(at))
    offset = np.cumsum(m) - m
    return np.minimum(mismatch[np.searchsorted(mismatch, offset)] - offset, m)


def build_from_strings(lines):
    """Trie of all prefixes of the given byte strings (deduplicated).

    Empty input yields the single-node trie. A NUL byte anywhere is a
    format error (byte 0 is the reserved sentinel).

    Nodes are the distinct prefixes in byte order, which is pre-order with
    children in label order. Over the distinct lines sorted, line i adds its
    prefixes longer than its longest common prefix with line i-1, in order
    of length; so the depths and labels follow from the sorted lines'
    lengths and LCPs with array operations, and no Python loop runs over
    the lines: the LCPs come from one comparison of the lines laid end to
    end (:func:`_pair_lcps`), and the depths are the trie as they stand.
    """
    # sorted before the repeats go, so that a nearly sorted input keeps its runs
    lines = list(dict.fromkeys(sorted(map(bytes, lines))))
    joined = b"".join(lines)
    if 0 in joined:
        raise FormatError("input contains NUL byte")
    data = np.frombuffer(joined, dtype=np.uint8)
    alphabet = Alphabet(np.flatnonzero(np.bincount(data, minlength=256)).tolist())
    code = np.zeros(256, dtype=np.int64)
    code[alphabet.byte_of_code[1:]] = np.arange(1, alphabet.sigma)
    lens = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    lcps = np.zeros(len(lines), dtype=np.int64)
    lcps[1:] = _pair_lcps(data, lens)
    new = lens - lcps  # line i adds the prefixes of lengths lcp+1 .. len
    depth = np.zeros(int(new.sum()) + 2, dtype=np.int64)
    depth[2:] = concat_ranges(lcps + 1, new)
    label = np.zeros_like(depth)
    label[2:] = code[data[concat_ranges(np.cumsum(lens) - lens + lcps, new)]]
    return LabeledTrie(depth, label, alphabet)


def build_from_edges(n, edges):
    """Trie from an explicit pre-order edge list.

    ``edges[k] = (parent_id, label_byte)`` defines node ``k + 2``. Labels are
    raw byte values and get remapped to dense codes.
    """
    if n < 1:
        raise FormatError("node count must be >= 1")
    if len(edges) != n - 1:
        raise FormatError(f"expected {n - 1} edges for {n} nodes, got {len(edges)}")
    alphabet = Alphabet(b for _, b in edges)
    parent = [0, 0] + [int(p) for p, _ in edges]
    label = [0, SENTINEL] + [alphabet.code_of_byte[int(b)] for _, b in edges]
    return LabeledTrie.from_parents(parent, label, alphabet)


def parse_strings_file(data: bytes):
    """Format A: LF-terminated byte lines; the trie is their prefix closure."""
    lines = data.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    return build_from_strings(lines)


def _edge_field(text):
    """One Format B field as an int: one or more ASCII digits, nothing else
    (``int`` alone would also take a sign, spaces, ``_`` and non-ASCII digits)."""
    if not text.isdigit():  # bytes.isdigit is true for b"0".."9" only
        raise FormatError(f"malformed edge file: field {text!r} is not ASCII digits")
    return int(text)


def parse_edges_file(data: bytes):
    """Format B: first line n, then n-1 lines ``parent<TAB>label_byte_decimal``."""
    rows = [ln for ln in data.split(b"\n") if ln]
    if not rows:
        raise FormatError("empty edge file")
    n = _edge_field(rows[0])
    edges = []
    for ln in rows[1:]:
        fields = ln.split(b"\t")
        if len(fields) != 2:
            raise FormatError(f"malformed edge file: line {ln!r} is not two tab-separated fields")
        edges.append((_edge_field(fields[0]), _edge_field(fields[1])))
    return build_from_edges(n, edges)


class ColexOrder:
    """Bidirectional permutation between pre-order ids and co-lex ranks."""

    __slots__ = ("colex_to_pre", "pre_to_colex")

    def __init__(self, colex_to_pre):
        self.colex_to_pre = np.asarray(colex_to_pre, dtype=np.int64)
        n = len(self.colex_to_pre) - 1
        inv = np.zeros(n + 1, dtype=np.int64)
        inv[self.colex_to_pre[1:]] = np.arange(1, n + 1)
        self.pre_to_colex = inv

    @property
    def n(self):
        return len(self.colex_to_pre) - 1


def colex_sort(trie):
    """Co-lexicographic node order by prefix doubling over ancestor pointers.

    A node's key is its reversed root path followed by the root's sentinel
    repeated forever. Ranks start as incoming labels; each round re-ranks by
    (rank[u], rank[anc[u]]), which doubles the key length ranked, and then
    squares the pointers (``anc = anc[anc]``; the root chains to itself).
    Ranks are distinct after at most ceil(log2(depth + 1)) rounds (Manber &
    Myers 1993; the path sort of the XBWT).
    """
    n = trie.n
    anc = trie.parent.copy()
    anc[1] = 1
    rank = trie.label.copy()
    width = np.int64(max(n, int(rank.max())) + 1)  # exceeds every rank
    while True:
        key = rank[1:] * width + rank[anc[1:]]
        uniq, inv = np.unique(key, return_inverse=True)
        rank[1:] = inv
        if len(uniq) == n:
            break
        if (anc[1:] == 1).all():
            raise AssertionError("co-lex keys of two nodes coincide")
        anc = anc[anc]
    colex_to_pre = np.zeros(n + 1, dtype=np.int64)
    colex_to_pre[rank[1:] + 1] = np.arange(1, n + 1)
    return ColexOrder(colex_to_pre)


def naive_colex_order(trie):
    """Reference: sort nodes by reversed root-path label strings."""
    keys = [None] * (trie.n + 1)
    for u in range(1, trie.n + 1):
        codes = trie.path_codes(u)
        keys[u] = tuple(reversed([SENTINEL] + codes))
    order = sorted(range(1, trie.n + 1), key=lambda u: keys[u])
    return ColexOrder(np.array([0] + order, dtype=np.int64))


def oracle_locate(trie, pattern, colex=None):
    """Exact locate by scanning every root-to-node path string.

    Returns the pre-order ids of all nodes whose path is suffixed by
    ``pattern`` (bytes), sorted by co-lex rank. The empty pattern matches
    every node.
    """
    if colex is None:
        colex = colex_sort(trie)
    pattern = bytes(pattern)
    paths = trie.path_byte_strings()
    hits = [u for u in range(1, trie.n + 1) if paths[u].endswith(pattern)]
    hits.sort(key=lambda u: colex.pre_to_colex[u])
    return hits


def is_isomorphic(trie, u, v):
    """True iff the complete subtrees rooted at u and v are isomorphic."""
    if not (1 <= u <= trie.n and 1 <= v <= trie.n):
        raise IndexError("node id out of range")
    sig = trie.iso_signatures()
    return bool(sig[u] == sig[v])
