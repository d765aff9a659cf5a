import gc
import random
import sys

import numpy as np
import pytest

from rlxt.bits import SparseBitVec
from rlxt.errors import DomainError
from rlxt.topology import BpsTopology
from rlxt.trie import Alphabet, LabeledTrie, is_isomorphic

from conftest import EX26_BLUE, EX26_RED, make_random_trie


@pytest.fixture(scope="module")
def topo26(ex26):
    return BpsTopology.from_trie(ex26)


@pytest.fixture(scope="module")
def colored26(ex26, topo26):
    return SparseBitVec(topo26.n, sorted(EX26_RED | EX26_BLUE))


def test_depth_examples(topo26):
    assert topo26.depth(1) == 0
    assert topo26.depth(24) == 3
    assert topo26.depth(12) == 7


def test_cbr_examples(topo26):
    assert topo26.cbr(3, 2) == 6
    assert topo26.cbr(1, 1) == 2
    with pytest.raises(IndexError):
        topo26.cbr(26, 1)


def test_sr_examples(topo26):
    assert topo26.sr(7) == 3
    assert topo26.sr(2) == 1
    with pytest.raises(DomainError):
        topo26.sr(1)


def test_lca_examples(topo26):
    assert topo26.lca(5, 8) == 3
    assert topo26.lca(12, 24) == 1
    for u in (1, 9, 26):
        assert topo26.lca(u, u) == u


def test_laq_examples(topo26):
    assert topo26.laq(5, 2) == 3
    assert topo26.laq(6, 2) == 2
    assert topo26.laq(17, 0) == 17
    with pytest.raises(IndexError):
        topo26.laq(2, 5)


def test_isd_examples(topo26):
    assert topo26.isd(4, 5, 11) == 12
    assert topo26.isd(22, 24, 14) == 16
    assert topo26.isd(3, 9, 3) == 9
    with pytest.raises(DomainError):
        topo26.isd(4, 22, 11)
    # node 9 sits 6 ids below node 3, and node 4's subtree holds 2 ids: a
    # damaged sample naming 4 as 3's image must not give node 10
    with pytest.raises(DomainError, match="subtree is smaller"):
        topo26.isd(3, 9, 4)


def test_next_marked_in_subtree(topo26, colored26):
    assert topo26.next_marked_in_subtree(colored26, 2) == 3
    assert topo26.next_marked_in_subtree(colored26, 22) is None
    assert topo26.next_marked_in_subtree(colored26, 9) == 10


def test_lowest_covering_ancestor(topo26, colored26):
    assert topo26.lowest_covering_ancestor(colored26, 24) == 1
    assert topo26.lowest_covering_ancestor(colored26, 5) == 3
    assert topo26.lowest_covering_ancestor(colored26, 6) == 3


def _naive_depth(trie, u):
    d = 0
    while u != 1:
        u = int(trie.parent[u])
        d += 1
    return d


def test_navigation_matches_naive_references():
    rng = random.Random(21)
    for _ in range(25):
        t = make_random_trie(rng, 500, rng.choice([2, 3, 6]))
        topo = BpsTopology.from_trie(t)
        for _ in range(80):
            u = rng.randint(1, t.n)
            assert topo.depth(u) == _naive_depth(t, u)
            kids = t.children(u)
            assert topo.child_count(u) == len(kids)
            for k, ch in enumerate(kids, 1):
                assert topo.cbr(u, int(k)) == int(ch)
            if u != 1:
                sibs = list(t.children(int(t.parent[u])))
                assert topo.sr(u) == sibs.index(u) + 1
            ell = rng.randint(0, topo.depth(u))
            v = u
            for _ in range(ell):
                v = int(t.parent[v])
            assert topo.laq(u, ell) == v
            w = rng.randint(1, t.n)
            anc_u = set()
            x = u
            while True:
                anc_u.add(x)
                if x == 1:
                    break
                x = int(t.parent[x])
            x = w
            while x not in anc_u:
                x = int(t.parent[x])
            assert topo.lca(u, w) == x


def test_isd_preserves_path_labels():
    rng = random.Random(22)
    for _ in range(20):
        t = make_random_trie(rng, 150, 3)
        topo = BpsTopology.from_trie(t)
        sig = t.iso_signatures()
        size = t.subtree_sizes()
        by_sig = {}
        for u in range(1, t.n + 1):
            by_sig.setdefault(int(sig[u]), []).append(u)
        for group in by_sig.values():
            if len(group) < 2:
                continue
            u, u2 = group[0], group[1]
            assert is_isomorphic(t, u, u2)
            for v in range(u + 1, u + int(size[u])):
                v2 = topo.isd(u, v, u2)
                lab = []
                x = v
                while x != u:
                    lab.append(int(t.label[x]))
                    x = int(t.parent[x])
                lab2 = []
                x = v2
                while x != u2:
                    lab2.append(int(t.label[x]))
                    x = int(t.parent[x])
                assert lab == lab2


def test_marked_queries_against_brute_force():
    rng = random.Random(23)
    for _ in range(20):
        t = make_random_trie(rng, 200, 3)
        topo = BpsTopology.from_trie(t)
        size = t.subtree_sizes()
        marked = set(u for u in range(2, t.n + 1) if rng.random() < 0.15)
        marked.add(1)
        marks = SparseBitVec(topo.n, sorted(marked))
        assert [u for u in range(-1, t.n + 3) if marks.contains(u)] == sorted(marked)
        for u in range(1, t.n + 1):
            inside = [v for v in range(u + 1, u + int(size[u])) if v in marked]
            assert topo.next_marked_in_subtree(marks, u) == (min(inside) if inside else None)
        for u in range(2, t.n + 1):
            if any(u <= v < u + int(size[u]) for v in marked):
                continue  # contract requires a mark-free subtree
            a = int(t.parent[u])
            while not any(a <= v < a + int(size[a]) for v in marked):
                a = int(t.parent[a])
            assert topo.lowest_covering_ancestor(marks, u) == a


def test_bps_round_trip(ex26):
    topo = BpsTopology.from_trie(ex26)
    topo2, _ = BpsTopology.from_bytes(topo.to_bytes())
    assert np.array_equal(topo.parens, topo2.parens)
    assert topo.subtree_size == topo2.subtree_size and topo.node_depth == topo2.node_depth
    assert [topo.laq(u, 1) for u in range(2, ex26.n + 1)] == ex26.parent[2:].tolist()
    assert [topo.depth(u) for u in range(1, ex26.n + 1)] == ex26.depth[1:].tolist()


def _stack_tables(parens):
    """open_pos, close_pos, parent and depth of every node by one walk over
    the parentheses with a stack of open nodes: the reference the
    array-built tables must match."""
    n = len(parens) // 2
    open_pos, close_pos = [0] * n, [0] * (n + 1)
    parent, depth = [0] * (n + 1), [0] * (n + 1)
    path = [0]  # the open nodes, under the root's parent 0
    node = 0
    for pos, bit in enumerate(parens, 1):
        if bit:
            open_pos[node] = pos
            node += 1
            parent[node] = path[-1]
            depth[node] = len(path) - 1
            path.append(node)
        else:
            close_pos[path.pop()] = pos
    return open_pos, close_pos, parent, depth


def _path_parens(m):
    return [1] * m + [0] * m


def _star_parens(k):
    return [1] + [1, 0] * k + [0]


def _assert_tables_match_stack_walk(topo):
    open_pos, close_pos, parent, depth = _stack_tables(topo.parens.tolist())
    sizes = [(close_pos[u] - open_pos[u - 1] + 1) // 2 for u in range(1, topo.n + 1)]
    assert list(topo.subtree_size)[1:] == sizes
    assert list(topo.node_depth)[1:] == depth[1:]
    assert [topo.laq(u, 1) for u in range(2, topo.n + 1)] == parent[2:]
    assert [topo.depth(u) for u in range(1, topo.n + 1)] == depth[1:]


def test_tables_match_stack_walk():
    rng = random.Random(24)
    for _ in range(30):
        t = make_random_trie(rng, rng.randint(1, 600), rng.choice([1, 2, 3, 6]))
        topo = BpsTopology.from_trie(t)
        _assert_tables_match_stack_walk(topo)
    # depth keys sort as uint8, uint16 (the 20,000-deep path) and uint32
    for parens in ([1, 0], _path_parens(20_000), _path_parens(70_000), _star_parens(255)):
        topo, _ = BpsTopology.from_bytes(BpsTopology(parens).to_bytes())
        assert topo.parens.tolist() == parens
        _assert_tables_match_stack_walk(topo)


def test_path_depth_at_the_int16_boundary():
    # paths of 2**15 - 1 and 2**15 nodes answer depth and a root-deep laq;
    # sequences that close more than they open past that depth are rejected
    for m in (2**15 - 1, 2**15):
        topo = BpsTopology(_path_parens(m))
        assert topo.depth(m) == m - 1 and topo.laq(m, m - 1) == 1
    for parens in (_path_parens(2**15) + [0, 1], [1] * 2**16 + [0] * 2**16 + [0, 1]):
        with pytest.raises(ValueError):
            BpsTopology(parens)


@pytest.mark.parametrize("m, itemsize", [(256, 1), (257, 2), (65_536, 2), (65_537, 4)])
def test_depth_table_width_boundaries(m, itemsize):
    # a path of m nodes is m - 1 deep: depths up to 255 fit one byte, up to
    # 65,535 two, and the next depth takes the next width
    topo, _ = BpsTopology.from_bytes(BpsTopology(_path_parens(m)).to_bytes())
    assert topo.node_depth.itemsize == itemsize
    assert topo.parens.tolist() == _path_parens(m)
    _assert_tables_match_stack_walk(topo)


@pytest.mark.parametrize("parens", [[1], [1, 0, 1], [0, 1], [1, 0, 0, 1], [1, 1, 0, 1],
                                    [1, 1], [1, 0, 0, 1, 1, 0],
                                    # balanced, but two trees
                                    [1, 0, 1, 0], [1, 1, 0, 0, 1, 0]])
def test_odd_or_unbalanced_parens_are_rejected(parens):
    with pytest.raises(ValueError):
        BpsTopology(parens)


def test_star_children_step_by_subtree_size():
    k = 255
    topo = BpsTopology(_star_parens(k))
    assert topo.child_count(1) == k
    assert [topo.cbr(1, j) for j in range(1, k + 1)] == list(range(2, k + 2))
    assert [topo.sr(u) for u in range(2, k + 2)] == list(range(1, k + 1))
    assert all(topo.child_count(u) == 0 for u in range(2, k + 2))
    with pytest.raises(IndexError):
        topo.cbr(1, k + 1)
    with pytest.raises(IndexError):
        topo.cbr(2, 1)


def _deep_size(obj):
    """Bytes held by obj and everything it references, counted once."""
    seen, total, stack = set(), 0, [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, type):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total


def test_loaded_topology_size_per_node():
    rng = random.Random(25)
    t = make_random_trie(rng, 20_000, 4)
    topo, _ = BpsTopology.from_bytes(BpsTopology.from_trie(t).to_bytes())
    assert _deep_size(topo) <= 10 * t.n


def _caterpillar(m, spine_first):
    """A spine of m nodes with one leaf on each. With ``spine_first`` the
    spine label is the smaller, so pre-order runs down the whole spine before
    any leaf; otherwise each leaf directly follows its spine node. Returns
    the trie; per node, (index k of the spine node s_k at or above it,
    whether it is a leaf); and the spine nodes from the root down."""
    n = 2 * m
    parent = np.zeros(n + 1, dtype=np.int64)
    label = np.zeros(n + 1, dtype=np.int64)
    k = np.arange(m)
    if spine_first:
        spine, leaf = k + 1, 2 * m - k  # s_0..s_{m-1}, then leaf_{m-1} .. leaf_0
    else:
        spine, leaf = 2 * k + 1, 2 * k + 2
    parent[spine[1:]] = spine[:-1]
    parent[leaf] = spine
    label[spine[1:]] = 1 if spine_first else 2
    label[leaf] = 2 if spine_first else 1
    t = LabeledTrie.from_parents(parent, label, Alphabet(b"ab"))
    where = {}
    for kk in range(m):
        where[int(spine[kk])] = (kk, False)
        where[int(leaf[kk])] = (kk, True)
    # one parent walk from the deepest spine node gives every spine node
    walk = [int(spine[-1])]
    while walk[-1] != 1:
        walk.append(int(t.parent[walk[-1]]))
    assert walk[::-1] == spine.tolist()
    return t, where, walk[::-1]


@pytest.mark.parametrize("m", [10_000, 100_000])
@pytest.mark.parametrize("spine_first", [False, True])
def test_far_laq_and_lca_on_caterpillars(m, spine_first):
    t, where, spine = _caterpillar(m, spine_first)
    topo = BpsTopology.from_trie(t)
    rng = random.Random(m + spine_first)

    def ancestor(u, ell):
        k, is_leaf = where[u]
        if is_leaf:
            return u if ell == 0 else spine[k - ell + 1]
        return spine[k - ell]

    for _ in range(150):
        u = rng.randint(1, t.n)
        d = topo.depth(u)
        if d <= 8:
            continue
        ell = rng.choice([d, 9, rng.randint(9, d)])
        assert topo.laq(u, ell) == ancestor(u, ell)
        v = rng.randint(1, t.n)
        want = u if u == v else spine[min(where[u][0], where[v][0])]
        assert topo.lca(u, v) == want


@pytest.mark.parametrize("spine_first", [False, True])
def test_lowest_covering_ancestor_on_caterpillars(spine_first):
    m = 100_000
    t, where, spine = _caterpillar(m, spine_first)
    topo = BpsTopology.from_trie(t)
    rng = random.Random(7 + spine_first)
    for _ in range(20):
        marked = sorted(rng.sample(range(1, t.n + 1), rng.randint(1, 4)))
        marks = SparseBitVec(topo.n, marked)
        # spine node s_k's subtree holds every node whose spine index is k or more
        top = max(where[v][0] for v in marked)
        for _ in range(30):
            u = rng.randint(2, t.n)
            k, is_leaf = where[u]
            if u in marked or (not is_leaf and top >= k):
                continue  # contract requires a mark-free subtree
            # u's proper ancestors are s_j, s_{j-1}, .., s_0 on the spine; the
            # lowest whose subtree holds a mark is s_min(j, top)
            j = k if is_leaf else k - 1
            assert topo.lowest_covering_ancestor(marks, u) == spine[min(j, top)]
