import functools
import random
from bisect import bisect_right

import pytest

from rlxt import storage
from rlxt.baseline import build_sampled
from rlxt.errors import DomainError
from rlxt.rindex import build_index
from rlxt.rlxbwt import backward_extend, cr, run_head_preorder, xbwt_successor
from rlxt.trie import LabeledTrie, build_from_strings, colex_sort

# 26-node running example used by most golden tests.
EX26_WORDS = [
    "a", "aa", "aaa", "aaab", "aab", "aac", "aacb", "aacc", "aacca",
    "aaccaa", "aaccaab", "aaccac", "ab", "aba", "abab", "abc", "ac",
    "acb", "acc", "acca", "b", "ba", "bab", "bc", "c",
]

EX26_COLEX_TO_PRE = [
    1, 2, 3, 4, 11, 23, 15, 21, 10, 22, 14, 6, 5, 12, 24, 16, 19, 8, 26,
    18, 7, 13, 25, 17, 20, 9,
]

EX26_RED = {3, 7, 14, 15, 17, 21, 26}
EX26_BLUE = {1, 8, 10}


def ex26_lines():
    return [w.encode() for w in EX26_WORDS]


@pytest.fixture(scope="session")
def ex26():
    return build_from_strings(ex26_lines())


@pytest.fixture(scope="session")
def ex26_colex(ex26):
    return colex_sort(ex26)


@functools.cache
def saved_example(engine):
    """The saved index of [abc, abd, bcd, xyz], n = 11: the run-length
    index for ``engine`` "rindex", the sampled one (t = 2) for "sampled"."""
    t = build_from_strings([b"abc", b"abd", b"bcd", b"xyz"])
    if engine == "rindex":
        return storage.save_rindex(build_index(t))
    return storage.save_sampled(build_sampled(t, colex_sort(t), t=2))


def with_flipped_bit(blob, section, bit):
    """The saved index ``blob`` with one bit of ``section`` flipped, under a
    valid checksum."""
    engine, sections = storage._unpack(blob)
    payload = bytearray(sections[section])
    payload[bit // 8] ^= 1 << bit % 8
    sections[section] = bytes(payload)
    return storage._pack(engine, sections)


def _repacked(blob, change):
    engine, sections = storage._unpack(blob)
    return storage._pack(engine, change(dict(sections)))


def _with_gap(blob):
    """``blob`` with a zero byte between its section table and its first
    payload, and every offset in the table moved past it."""
    engine, sections = storage._unpack(blob)
    end = storage.header_bytes(len(sections))
    table = bytearray(blob[:end])
    for k in range(len(sections)):
        at = 12 + storage._ENTRY.size * k + 8  # past the tag
        offset = int.from_bytes(table[at : at + 8], "little")
        table[at : at + 8] = (offset + 1).to_bytes(8, "little")
    return bytes(table) + b"\0" + blob[end:]


# ways a saved run-length index can depart from the layout that saving
# writes, each with the one line its load raises: saved_example("rindex")
# has nine sections, so its payloads start at byte 264
LAYOUT_DAMAGE = {
    "trailing-bytes": (lambda blob: blob + b"\0", "bytes follow the last section 'runheads'"),
    "extra-section": (lambda blob: _repacked(blob, lambda s: {**s, "extra": b""}),
                      "extra section 'extra'"),
    "reordered": (lambda blob: _repacked(blob, lambda s: {"topology": s.pop("topology"), **s}),
                  "section 'topology' out of order"),
    "reserved-byte": (lambda blob: blob[:7] + b"\1" + blob[8:], "reserved byte is 1, not 0"),
    "gap": (_with_gap, "section 'meta' starts at byte 265, not 264"),
    "missing-section": (lambda blob: _repacked(blob, lambda s: {
        k: v for k, v in s.items() if k != "runheads"}), "section 'runheads' missing"),
}


def composed_step(rlx, rng, c):
    """One toehold step as the checked queries compose it: the range of
    P.c, the pre-order id of the c-run head at the successor i of lo (None
    when i is lo) and c's child rank at i; None if P.c matches nothing."""
    new = backward_extend(rlx, rng, c)
    if new is None:
        return None
    i = xbwt_successor(rlx, c, rng[0])
    head = None if i == rng[0] else run_head_preorder(rlx, c, i)
    return new, head, cr(rlx, i, c)


def checked_toehold(idx, codes, branches=None):
    """``toehold_search`` as the fold of :func:`composed_step` and the
    checked ``topo.cbr``. Each step counts in ``branches``, if given: "at
    lo", "next run" or "empty" by its outcome. A step that starts short of
    the whole range and finds a run k of c, the one that holds lo or the
    next, counts again under "hi past lo's run" if hi lies past run k's
    last position (count's steps with a second search). A pattern that
    matches counts once more by the step j where the toehold's one descent
    starts, the last that reads a run head, or the first: under "from the
    first step" where j is 0, else "from a jump"; and its j earlier steps,
    whose first nodes the toehold never finds, under "skipped"."""
    rlx = idx.rlx
    rng, node, j = (1, idx.n), 1, 0
    for i, c in enumerate(codes):
        step = composed_step(rlx, rng, c)
        if branches is not None:
            branches["empty" if step is None else "at lo" if step[1] is None else "next run"] += 1
            lo, hi = rng
            if step is not None and rng != (1, idx.n):  # the whole range: no search at all
                i_lo = xbwt_successor(rlx, c, lo)
                run_start, base = rlx.run_start[c], rlx.base[c]
                k = bisect_right(run_start, i_lo) - 1
                end = base[k + 1] if k + 1 < len(base) else rlx.c_array[c + 1] - rlx.c_array[c]
                if hi - run_start[k] >= end - base[k]:
                    branches["hi past lo's run"] += 1
        if step is None:
            return None
        rng, head, k = step
        if head is not None:
            j = i
        node = idx.topo.cbr(node if head is None else head, k)
    if branches is not None and codes:
        branches["from a jump" if j else "from the first step"] += 1
        branches["skipped"] += j
    return rng, node


def descent_block(idx, codes):
    """The block whose head ``toehold_search`` reads: the one where the
    run starts that the last jump of the checked steps heads (lo's
    successor heading c's next run), or the first step's; None for a
    pattern that matches nothing or is empty, where it reads none."""
    rlx = idx.rlx
    rng, block = (1, idx.n), None
    for i, c in enumerate(codes):
        step = composed_step(rlx, rng, c)
        if step is None:
            return None
        if i == 0 or step[1] is not None:
            block = bisect_right(rlx.starts, xbwt_successor(rlx, c, rng[0])) - 1
        rng = step[0]
    return block


def is_colored(colors, u):
    """Whether node u is red or blue, for :class:`~rlxt.rindex.ColorMarks`."""
    return colors.colored.contains(u)


def is_blue(colors, u):
    return colors.blue.contains(u)


def is_red(colors, u):
    return colors.colored.contains(u) and u not in colors.blue_only  # < sigma blue-only


def isc(idx, u, k):
    """The isomorphic-child jump at red node u: the child rank, under u's
    co-lex successor, of the label of u's k-th child. The climb's
    ``RlXbwt.isc_at`` at the block u ends, found from u through its anchor
    in ``idx.colors``."""
    colors, r = idx.colors, idx.rlx.r_prime
    colored = colors.colored
    q = colors.anchor[colored.rank1(u) - 1] - 1 if colored.contains(u) else r
    if q >= r - 1:  # not colored, or blue-only
        raise DomainError(f"node {u} is not a run-break node")
    return idx.rlx.isc_at(q, k)


def sampled_with_flipped_bit(bit, section="xbwtflat"):
    """The sampled example index with one bit of ``section`` flipped. Its
    ``xbwtflat`` section holds the node count (u64), a degree byte per node,
    then the labels."""
    return with_flipped_bit(saved_example("sampled"), section, bit)


def make_random_trie(rng: random.Random, max_n: int, sigma: int) -> LabeledTrie:
    """Random trie grown by attaching nodes to random parents.

    ``sigma`` is the edge-label pool size; the effective alphabet may be
    smaller. Children are inserted keeping pre-order validity by rebuilding
    the id assignment at the end.
    """
    n = rng.randint(1, max_n)
    labels_pool = list(range(1, sigma + 1))
    # adjacency in insertion space first, re-number in DFS order afterwards
    children = {0: {}}
    nodes = [0]
    for _ in range(n - 1):
        for _attempt in range(64):
            p = rng.choice(nodes)
            c = rng.choice(labels_pool)
            if c not in children[p]:
                break
        else:
            continue
        nid = len(nodes)
        children[p][c] = nid
        children[nid] = {}
        nodes.append(nid)
    parent = [0, 0]
    label = [0, 0]
    stack = [(1, c, children[0][c]) for c in sorted(children[0], reverse=True)]
    while stack:
        pid, c, old = stack.pop()
        uid = len(parent)
        parent.append(pid)
        label.append(c)
        for cc in sorted(children[old], reverse=True):
            stack.append((uid, cc, children[old][cc]))
    from rlxt.trie import Alphabet

    used = [b for b in label[2:]]
    alphabet = Alphabet(used if used else [])
    dense = [0, 0] + [alphabet.code_of_byte[b] for b in label[2:]]
    return LabeledTrie.from_parents(parent, dense, alphabet)


def path_trie(data: bytes) -> LabeledTrie:
    return build_from_strings([data] if data else [])


def make_dictionary(rng: random.Random, nwords: int, alpha: bytes, minlen=3, maxlen=12):
    words = set()
    while len(words) < nwords:
        ln = rng.randint(minlen, maxlen)
        words.add(bytes(rng.choice(alpha) for _ in range(ln)))
    return sorted(words)


def mutate_word(rng: random.Random, word: bytes, alpha: bytes) -> bytes:
    if not word:
        return word
    i = rng.randrange(len(word))
    return word[:i] + bytes([rng.choice(alpha)]) + word[i + 1 :]


def repetitive_lines(rng: random.Random, words, alpha: bytes, copies: int, edit_rate=0.02):
    """Concatenated copies of a dictionary, each copy lightly mutated."""
    lines = []
    for _ in range(copies):
        for w in words:
            lines.append(mutate_word(rng, w, alpha) if rng.random() < edit_rate else w)
    return lines


def versioned_lines(rng: random.Random, words, alpha: bytes, versions: int, edit_rate=0.01):
    """Near-duplicate dictionaries, each under a distinct short version prefix.

    Unlike plain duplication (which a trie dedupes away), this repeats whole
    subtrees and is the shape where the run count stays far below n.
    """
    lines = []
    for v in range(versions):
        tag = bytes([97 + v // 26, 97 + v % 26, ord("/")])
        for w in words:
            if rng.random() < edit_rate and w:
                w = mutate_word(rng, w, alpha)
            lines.append(tag + w)
    return lines


def make_text_dictionary(rng: random.Random, nwords: int, alpha: bytes, text_len=300):
    """Words sampled as substrings of one base text (low continuation entropy)."""
    text = bytes(rng.choice(alpha) for _ in range(text_len))
    words = set()
    while len(words) < nwords:
        ln = rng.randint(4, min(16, text_len - 1))
        i = rng.randrange(len(text) - ln)
        words.add(text[i : i + ln])
    return sorted(words)


def present_patterns(trie, rng: random.Random, count: int, max_len=6):
    """Byte patterns that occur as path-label substrings of the trie."""
    paths = trie.path_byte_strings()
    pats = set()
    for _ in range(count * 3):
        u = rng.randint(1, trie.n)
        s = paths[u]
        if not s:
            continue
        ln = rng.randint(1, min(max_len, len(s)))
        start = rng.randint(0, len(s) - ln)
        pats.add(s[start : start + ln])
        if len(pats) >= count:
            break
    return sorted(pats)


def random_patterns(rng: random.Random, alpha: bytes, count: int, max_len=6):
    pats = []
    for _ in range(count):
        ln = rng.randint(1, max_len)
        pats.append(bytes(rng.choice(alpha) for _ in range(ln)))
    return pats


def trie_alpha_bytes(trie) -> bytes:
    return bytes(int(b) for b in trie.alphabet.byte_of_code[1:])
