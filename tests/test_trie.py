import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlxt.errors import DeterminismError, FormatError, PreorderError
from rlxt.trie import (
    Alphabet,
    LabeledTrie,
    _depths,
    _last_one_level_up,
    _pair_lcps,
    _subtree_sizes,
    build_from_edges,
    build_from_strings,
    colex_sort,
    is_isomorphic,
    naive_colex_order,
    oracle_locate,
    parse_edges_file,
    parse_strings_file,
)

from conftest import (
    EX26_COLEX_TO_PRE,
    ex26_lines,
    make_random_trie,
    path_trie,
    present_patterns,
)


def test_ex26_shape(ex26):
    assert ex26.n == 26
    assert ex26.alphabet.sigma == 4  # sentinel + {a,b,c}
    # pre-order ids follow the word list: node 14 is "ab", node 22 is "b"
    paths = ex26.path_byte_strings()
    assert paths[14] == b"ab"
    assert paths[22] == b"b"
    assert paths[12] == b"aaccaab"


def test_build_from_strings_degenerate():
    assert build_from_strings([]).n == 1
    t = build_from_strings([b"ab", b"ab"])
    assert t.n == 3
    assert t.path_byte_strings()[3] == b"ab"


def test_nul_byte_rejected():
    with pytest.raises(FormatError):
        build_from_strings([b"a\x00b"])


def _encode_by_dict(alphabet, data):
    """The byte-at-a-time encoding: a dict of the mapped bytes' codes."""
    code_of = {int(b): c for c, b in enumerate(alphabet.byte_of_code) if c}
    codes = []
    for b in bytes(data):
        if b not in code_of:
            return None
        codes.append(code_of[b])
    return codes


def test_encode_matches_the_dict_loop():
    rng = random.Random(9)
    for used in (b"acgt", bytes(range(1, 256)), b"\xff", bytes(rng.sample(range(1, 256), 40))):
        alphabet = Alphabet(used)
        pats = [bytes([b]) for b in range(256)]
        pats += [b"", b"\x00", used[:3] + b"\x00", b"\x00" + used[:3], used + b"\xfe", used[::-1]]
        pats += [bytes(rng.choice(range(256)) for _ in range(rng.randint(1, 9))) for _ in range(50)]
        for pat in pats:
            got, want = alphabet.encode(pat), _encode_by_dict(alphabet, pat)
            assert (got if got is None else list(got)) == want, (used, pat)
            if got is not None:
                assert alphabet.decode(got) == pat
        assert alphabet.encode(bytearray(used)) == alphabet.encode(used)


def test_build_from_edges():
    t = build_from_edges(3, [(1, ord("a")), (2, ord("b"))])
    assert t.path_byte_strings()[3] == b"ab"
    with pytest.raises(DeterminismError):
        build_from_edges(3, [(1, ord("a")), (1, ord("a"))])
    with pytest.raises(PreorderError):
        build_from_edges(3, [(2, ord("a")), (1, ord("b"))])


def test_build_from_edges_ex26(ex26):
    edges = [(int(ex26.parent[u]), int(ex26.alphabet.byte_of_code[ex26.label[u]]))
             for u in range(2, 27)]
    t = build_from_edges(26, edges)
    assert np.array_equal(t.parent, ex26.parent)
    assert np.array_equal(t.label, ex26.label)


def test_colex_sort_ex26(ex26, ex26_colex):
    assert list(ex26_colex.colex_to_pre[1:]) == EX26_COLEX_TO_PRE


def test_colex_sort_trivial():
    assert list(colex_sort(build_from_strings([])).colex_to_pre[1:]) == [1]
    t = path_trie(b"ba")
    assert list(colex_sort(t).colex_to_pre[1:]) == [1, 3, 2]


def test_colex_matches_reversed_path_sort():
    rng = random.Random(1)
    for _ in range(60):
        t = make_random_trie(rng, 200, rng.choice([2, 3, 8]))
        got = colex_sort(t)
        ref = naive_colex_order(t)
        assert np.array_equal(got.colex_to_pre, ref.colex_to_pre)


def test_colex_axioms_hold_pairwise():
    rng = random.Random(2)
    for _ in range(30):
        t = make_random_trie(rng, 150, 4)
        order = colex_sort(t)
        lam = t.label[order.colex_to_pre[1:]]
        assert (np.diff(lam) >= 0).all()  # axiom (i)
        for i in range(1, t.n):
            u, v = order.colex_to_pre[i], order.colex_to_pre[i + 1]
            if t.label[u] == t.label[v]:  # axiom (ii)
                assert order.pre_to_colex[t.parent[u]] < order.pre_to_colex[t.parent[v]]


def test_oracle_locate_examples(ex26, ex26_colex):
    assert oracle_locate(ex26, b"ac", ex26_colex) == [18, 7, 13]
    assert oracle_locate(ex26, b"", ex26_colex) == EX26_COLEX_TO_PRE
    assert oracle_locate(ex26, b"bb", ex26_colex) == []


def test_oracle_ranges_are_convex():
    rng = random.Random(3)
    for _ in range(15):
        t = make_random_trie(rng, 120, 3)
        order = colex_sort(t)
        for pat in present_patterns(t, rng, 15):
            hits = oracle_locate(t, pat, order)
            ranks = [int(order.pre_to_colex[u]) for u in hits]
            assert ranks == list(range(min(ranks), max(ranks) + 1))


def test_is_isomorphic_examples(ex26):
    assert is_isomorphic(ex26, 4, 11)
    assert not is_isomorphic(ex26, 3, 14)
    for u in (1, 5, 26):
        assert is_isomorphic(ex26, u, u)


def test_format_round_trip(ex26):
    data = ex26.to_edge_lines().encode()
    t = parse_edges_file(data)
    assert np.array_equal(t.parent, ex26.parent)
    assert np.array_equal(t.label, ex26.label)
    raw = b"\n".join(ex26_lines()) + b"\n"
    t2 = parse_strings_file(raw)
    assert np.array_equal(t2.parent, ex26.parent)
    assert np.array_equal(t2.label, ex26.label)


# -- the array-at-a-time builder against per-node references ----------------


def dict_trie_arrays(lines):
    """Reference trie of the prefixes of ``lines``, built node by node: a
    dict trie walked depth-first. Returns (parent, label, depth, child_start,
    child_ids) with labels as dense codes, as :class:`LabeledTrie` holds them."""
    used = sorted(set(b for line in lines for b in line))
    code = {b: k + 1 for k, b in enumerate(used)}
    root = {}
    for line in lines:
        cur = root
        for b in line:
            cur = cur.setdefault(code[b], {})
    parent, label, depth = [0, 0], [0, 0], [0, 0]
    stack = [(1, c, root[c]) for c in sorted(root, reverse=True)]
    while stack:
        pid, c, node = stack.pop()
        uid = len(parent)
        parent.append(pid)
        label.append(c)
        depth.append(depth[pid] + 1)
        stack.extend((uid, cc, node[cc]) for cc in sorted(node, reverse=True))
    n = len(parent) - 1
    kids = [[] for _ in range(n + 1)]
    for u in range(2, n + 1):
        kids[parent[u]].append(u)
    child_start = [0, 0]
    for u in range(1, n + 1):
        child_start.append(child_start[-1] + len(kids[u]))
    child_ids = [u for ks in kids for u in ks]
    return parent, label, depth, child_start, child_ids


def loop_preorder_error(parent, label):
    """Reference check of a parent/label array pair, one node at a time with
    a DFS stack: the error class and message for the first offending node,
    or None if the pair is a pre-order trie with ordered, distinct sibling
    labels."""
    n = len(parent) - 1
    stack = [1]
    for u in range(2, n + 1):
        p = parent[u]
        if not 1 <= p < u:
            return PreorderError, f"node {u} has parent {p} outside 1..{u - 1}"
        while stack and stack[-1] != p:
            stack.pop()
        if not stack:
            return PreorderError, f"node {u}: parent {p} not on the current DFS path"
        stack.append(u)
        if label[u] == 0:
            return FormatError, f"node {u}: sentinel label on an edge"
    for u in range(1, n + 1):
        labs = [label[v] for v in range(2, n + 1) if parent[v] == u]
        for a, b in zip(labs, labs[1:]):
            if a == b:
                return DeterminismError, f"node {u} has duplicate outgoing labels"
        for a, b in zip(labs, labs[1:]):
            if b < a:
                return PreorderError, f"node {u}: children not in label order"
    return None


def _vector_error(parent, label):
    alphabet = Alphabet([b for b in set(label[2:]) if 0 < b < 256])
    try:
        LabeledTrie.from_parents(parent, label, alphabet)
    except (PreorderError, FormatError, DeterminismError) as exc:
        return type(exc), str(exc)
    return None


LINES = st.lists(
    st.one_of(
        st.binary(max_size=12).map(lambda b: bytes(x or 1 for x in b)),
        st.lists(st.sampled_from(b"ab\x01\xff"), max_size=12).map(bytes),
    ),
    max_size=24,
)


# two 70,000-byte lines over ab sharing a 40,000-byte prefix: depths past
# 2**16, where the parent search sorts them at 32 bits
DEEP_PAIR = [b"ab" * 20_000 + b"a" + b"b" * 29_999, b"ab" * 20_000 + b"b" + b"a" * 29_999]


@settings(max_examples=300, deadline=None)
@given(LINES)
@example([])
@example([b""])
@example([b"", b"", b"a"])
@example([b"abc", b"ab", b"abc", b"a", b"abd"])
@example([bytes(range(1, 256)), bytes(range(255, 0, -1))])
@example([b"ab" * 150])  # depths past 255: sorted at 16 bits
@example(DEEP_PAIR)
def test_array_built_trie_matches_dict_trie(lines):
    t = build_from_strings(lines)
    parent, label, depth, child_start, child_ids = dict_trie_arrays(lines)
    assert t.parent.tolist() == parent
    assert t.label.tolist() == label
    assert t.depth.tolist() == depth
    assert t.child_start.tolist() == child_start
    assert t.child_ids.tolist() == child_ids
    assert bytes(t.alphabet.byte_of_code[1:].tolist()) == bytes(sorted(set(b"".join(lines))))


def _loop_lcps(lines):
    """LCP of every two neighbouring lines, one byte at a time."""
    out = []
    for a, b in zip(lines, lines[1:]):
        k = 0
        while k < min(len(a), len(b)) and a[k] == b[k]:
            k += 1
        out.append(k)
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=12),
                          st.lists(st.sampled_from(b"ab\xff"), max_size=12).map(bytes)),
                max_size=24))
@example([])
@example([b""])
@example([b"abc"])
@example([b"", b"", b"a", b""])
@example([b"ab", b"abc", b"abc", b"ab"])  # each line a prefix of the next, and back
@example([b"\xff\xff", b"\xff\xff\xff", b"\xff\xfe", b"\xff"])
def test_pair_lcps_match_the_byte_loop(lines):
    for order in (lines, sorted(set(lines))):
        lens = np.fromiter(map(len, order), dtype=np.int64, count=len(order))
        data = np.frombuffer(b"".join(order), dtype=np.uint8)
        assert _pair_lcps(data, lens).tolist() == _loop_lcps(order)


def _loop_last_one_level_up(depth):
    """The last node before each node one level up, one node at a time."""
    last, out = {}, [0] * len(depth)
    for u in range(1, len(depth)):
        out[u] = last.get(depth[u] - 1, 0)
        last[depth[u]] = u
    return out


@pytest.mark.parametrize("deepest", [255, 256, 257, 65_537])
def test_last_one_level_up_matches_the_loop_at_every_width(deepest):
    # a node whose level above has no node before it, a path down to depth
    # ``deepest``, a second branch off its middle back down, and random
    # depths: the depths sort at 8, 16, 16 and 32 bits
    rng = random.Random(deepest)
    depth = [0, 0, 2] + list(range(1, deepest + 1)) + list(range(deepest // 2, deepest + 1))
    depth = np.array(depth + [rng.randint(1, deepest) for _ in range(300)], dtype=np.int64)
    assert np.min_scalar_type(int(depth.max())).itemsize == (
        1 if deepest < 256 else 2 if deepest < 65_536 else 4)
    assert _last_one_level_up(depth).tolist() == _loop_last_one_level_up(depth.tolist())
    path = path_trie(b"ab" * (deepest // 2) + b"a" * (deepest % 2))
    assert int(path.depth.max()) == deepest
    assert path.parent.tolist() == [0, 0] + list(range(1, deepest + 1))


def _all_recursive_parent_arrays(max_n):
    """Every parent array with parent[u] in 1..u-1, for n = 1..max_n."""
    for n in range(1, max_n + 1):
        for choice in itertools.product(*[range(1, u) for u in range(2, n + 1)]):
            yield [0, 0, *choice]


def test_preorder_check_agrees_with_the_stack_loop_small():
    seen = 0
    for parent in _all_recursive_parent_arrays(7):
        seen += 1
        n = len(parent) - 1
        for label in ([0, 0] + [1] * (n - 1), [0, 0] + list(range(1, n)),
                      [0, 0] + list(range(n - 1, 0, -1))):
            assert _vector_error(parent, label) == loop_preorder_error(parent, label), parent
    assert seen == 874


def test_preorder_check_agrees_with_the_stack_loop_random():
    rng = random.Random(8)
    for _ in range(5000):
        n = rng.randint(1, 12)
        parent = [0, 0] + [rng.randint(-1, n + 1) if rng.random() < 0.05
                           else rng.randint(1, max(1, u - 1)) for u in range(2, n + 1)]
        label = [0, 0] + [rng.randint(0, 3) if rng.random() < 0.05 else rng.randint(1, 3)
                          for _ in range(2, n + 1)]
        assert _vector_error(parent, label) == loop_preorder_error(parent, label), (parent, label)


def _loop_depth_error(depth):
    """The first node of a depth sequence that no pre-order tree has there,
    one node at a time: the root at depth 0, every later node one to its
    predecessor's depth + 1. None if there is none."""
    for u in range(1, len(depth)):
        top = 0 if u == 1 else depth[u - 1] + 1
        if not min(top, 1) <= depth[u] <= top:
            return u
    return None


def test_depth_sequences_are_exactly_the_preorder_trees():
    # every sequence over 0..n-1 for n <= 6, and for n = 7 every one whose
    # root is at depth 0 (a root elsewhere fails at node 1 whatever follows)
    accepted = 0
    for n in range(1, 8):
        label = [0, 0] + list(range(1, n))
        alphabet = Alphabet(range(1, n))
        for depth in itertools.product(range(n), repeat=n):
            if n == 7 and depth[0]:
                continue
            depth = [0, *depth]
            bad = _loop_depth_error(depth)
            if bad is not None:
                with pytest.raises(PreorderError, match=f"^node {bad}: depth "):
                    LabeledTrie(depth, label, alphabet)
                continue
            accepted += 1
            t = LabeledTrie(depth, label, alphabet)
            assert t.depth.tolist() == depth
            assert t.parent.tolist() == _loop_last_one_level_up(depth)
            again = LabeledTrie.from_parents(t.parent, t.label, t.alphabet)
            for name in ("parent", "label", "depth", "child_start", "child_ids"):
                assert getattr(again, name).tolist() == getattr(t, name).tolist(), (depth, name)
    assert accepted == 1 + 1 + 2 + 5 + 14 + 42 + 132  # Catalan numbers: the ordered trees


def test_the_string_path_derives_the_parents_once(monkeypatch):
    import rlxt.trie

    calls = {"_last_one_level_up": 0, "_depths": 0}
    for name in calls:
        real = getattr(rlxt.trie, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(rlxt.trie, name, counted)
    t = parse_strings_file(b"\n".join(ex26_lines()) + b"\n")
    assert t.n == 26
    assert calls == {"_last_one_level_up": 1, "_depths": 0}


def test_colex_sort_by_doubling_matches_naive():
    one = build_from_strings([])
    assert colex_sort(one).colex_to_pre.tolist() == naive_colex_order(one).colex_to_pre.tolist()
    rng = random.Random(9)
    deep = [bytes(rng.choice(b"ab") for _ in range(320)) for _ in range(3)]
    deep.append(deep[0][:150] + b"b" * 170)
    for lines in ([b"a" * 310], [b"ab" * 160], deep):
        t = build_from_strings(lines)
        assert int(t.depth.max()) >= 300
        assert np.array_equal(colex_sort(t).colex_to_pre, naive_colex_order(t).colex_to_pre)


def _loop_depths(parent):
    depth = np.zeros(len(parent), dtype=np.int64)
    for u in range(2, len(parent)):
        depth[u] = depth[parent[u]] + 1
    return depth


def test_depths_of_preorder_parents_match_the_loop():
    # paths are the deepest tries: n - 1 levels take the most rounds allowed
    tries = [path_trie(b"a" * (n - 1)) for n in range(1, 70)]
    rng = random.Random(12)
    tries += [make_random_trie(rng, 300, rng.choice([2, 5])) for _ in range(40)]
    for t in tries:
        assert np.array_equal(_depths(t.parent), _loop_depths(t.parent))
        assert np.array_equal(t.depth, _loop_depths(t.parent))


def test_subtree_sizes_on_shuffled_ids_match_the_loop():
    rng = random.Random(13)
    for _ in range(40):
        t = make_random_trie(rng, 300, rng.choice([2, 5]))
        want = np.ones(t.n + 1, dtype=np.int64)
        want[0] = 0
        for u in range(t.n, 1, -1):
            want[t.parent[u]] += want[u]
        assert np.array_equal(t.subtree_sizes(), want)
        # the same tree under ids 2..n shuffled: parents no longer come first
        new = np.concatenate(([0, 1], rng.sample(range(2, t.n + 1), t.n - 1)))
        parent = np.zeros(t.n + 1, dtype=np.int64)
        parent[new[2:]] = new[t.parent[2:]]
        size = _subtree_sizes(parent, _depths(parent))
        assert np.array_equal(size[new], want)
