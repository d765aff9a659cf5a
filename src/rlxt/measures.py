"""Compressibility measures and their verification: worst-case trie entropy,
run-break tree attractors, and co-lex-convex quotient sizes.

These are desk-scale exact computations used to check the inequalities the
run count r is supposed to satisfy (entropy bounds, r <= omega, attractor
validity). Everything here is independent of the index machinery so it can
serve as an oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .trie import colex_sort

REL_TOL = 1e-9  # relative tolerance for entropy comparisons


def _log2_binom(n, k):
    if k < 0 or k > n:
        return 0.0
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / math.log(2)


@dataclass
class EntropyReport:
    k: int
    h_bits: float
    contexts: list = field(default_factory=list)  # (context, n', {label: n'_c}, bits)


def _contexts(trie, k):
    """Length-k context (last k labels, sentinel-padded) for every node."""
    ctx = [None] * (trie.n + 1)
    ctx[1] = (0,) * k
    for u in range(2, trie.n + 1):
        if k == 0:
            ctx[u] = ()
        else:
            ctx[u] = ctx[trie.parent[u]][1:] + (int(trie.label[u]),)
    return ctx


def entropy_hk(trie, colex, k):
    """k-th order worst-case entropy: per-context log-counts of label-set
    sequences with the context's label frequencies."""
    if k < 0:
        raise DomainError("context length must be >= 0")
    ctx = _contexts(trie, k)
    groups = {}
    for u in range(1, trie.n + 1):
        groups.setdefault(ctx[u], []).append(u)
    report = EntropyReport(k=k, h_bits=0.0)
    for rho in sorted(groups):
        members = groups[rho]
        n_prime = len(members)
        counts = {}
        for u in members:
            for c in trie.out_labels(u):
                counts[int(c)] = counts.get(int(c), 0) + 1
        bits = sum(_log2_binom(n_prime, nc) for nc in counts.values())
        report.contexts.append((rho, n_prime, counts, bits))
        report.h_bits += bits
    return report


def check_entropy_bounds(trie, colex, rlx, k_max=2):
    """Verify r against the entropy bounds for k = 0..k_max.

    sigma here is the effective edge alphabet (sentinel excluded), the
    tightest reading consistent with the worked examples. Returns per-k
    margins; raises AssertionError on violation.
    """
    r, _, _ = rlx.run_stats()
    sigma_eff = trie.alphabet.sigma - 1
    out = {"r": r, "sigma_eff": sigma_eff, "bounds": []}
    h0 = None
    prev_h = None
    for k in range(k_max + 1):
        h = entropy_hk(trie, colex, k).h_bits
        if k == 0:
            h0 = h
        bound = h + sigma_eff ** (k + 1)
        out["bounds"].append({"k": k, "h_wc_k": h, "bound": bound, "margin": bound - r})
        if r > bound * (1 + REL_TOL) + REL_TOL:
            raise AssertionError(f"run bound violated at k={k}: r={r} > {bound}")
        if prev_h is not None and h > prev_h * (1 + REL_TOL) + REL_TOL:
            raise AssertionError(f"entropy not monotone: H_{k}={h} > H_{k-1}={prev_h}")
        prev_h = h
    out["h_wc_0_bound"] = 2 * h0 + 1
    if r > (2 * h0 + 1) * (1 + REL_TOL) + REL_TOL:
        raise AssertionError(f"r={r} exceeds 2*H0+1={2 * h0 + 1}")
    return out


@dataclass(frozen=True)
class AttractorSet:
    edges: frozenset  # (parent pre-order id, child pre-order id) pairs

    def __len__(self):
        return len(self.edges)


def gamma_r(trie, colex, rlx):
    """The run-break edge set: for every c-run break at colex i (including
    the last position), the edge from that node along c."""
    edges = set()
    outs = [tuple(int(c) for c in trie.out_labels(int(colex.colex_to_pre[i])))
            for i in range(1, trie.n + 1)]
    for i in range(1, trie.n + 1):
        u = int(colex.colex_to_pre[i])
        nxt = outs[i] if i < trie.n else ()
        for c in outs[i - 1]:
            if c not in nxt:
                edges.add((u, trie.child_by_label(u, c)))
    return AttractorSet(frozenset(edges))


def _embed_crossing(trie, shape, start, edges):
    """Embed a label shape at ``start`` (unique if it exists); return
    (embeds, crosses): whether the embedding exists / uses an edge of Γ."""
    crosses = False
    stack = [(shape, start)]
    while stack:
        node_shape, at = stack.pop()
        for c, child_shape in node_shape:
            ch = trie.child_by_label(at, c)
            if not ch:
                return False, False
            if (at, ch) in edges:
                crosses = True
            stack.append((child_shape, ch))
    return True, crosses


def _complete_shape(trie, u):
    kids = trie.children(u)
    return tuple((int(trie.label[k]), _complete_shape(trie, int(k))) for k in kids)


def verify_attractor(trie, attractor, mode, colex=None):
    """Brute-force attractor check.

    ``complete-subtrees``: every complete subtree with at least one edge must
    have an isomorphic occurrence using an attractor edge; candidate
    occurrences are searched by walking co-lex successors, the direction in
    which a crossing copy of a repeated subtree must eventually appear.

    ``all-connected``: exhaustive over all connected subtrees (n <= 12 only).
    """
    edges = attractor.edges
    if mode == "complete-subtrees":
        if colex is None:
            colex = colex_sort(trie)
        size = trie.subtree_sizes()
        gamma_parents = np.array(sorted({p for p, _ in edges}), dtype=np.int64)

        def subtree_has_gamma(u):
            k = np.searchsorted(gamma_parents, u)
            return k < len(gamma_parents) and gamma_parents[k] < u + int(size[u])

        for u in range(1, trie.n + 1):
            if trie.degree(u) == 0:
                continue
            if subtree_has_gamma(u):
                continue
            # walk co-lex successors of the whole occurrence until it crosses
            nodes = np.arange(u, u + int(size[u]), dtype=np.int64)
            shape_edges = [(int(a), int(b)) for a in nodes for b in trie.children(int(a))]
            img = {int(x): int(x) for x in nodes}
            found = False
            for _step in range(trie.n):
                ranks = [int(colex.pre_to_colex[img[x]]) for x in img]
                if any(rk >= trie.n for rk in ranks):
                    break
                nxt = {x: int(colex.colex_to_pre[int(colex.pre_to_colex[img[x]]) + 1])
                       for x in img}
                ok = True
                for a, b in shape_edges:
                    if trie.child_by_label(nxt[a], int(trie.label[b])) != nxt[b]:
                        ok = False
                        break
                if not ok:
                    break
                img = nxt
                if any((img[a], img[b]) in edges for a, b in shape_edges):
                    found = True
                    break
            if not found:
                return False
        return True

    if mode == "all-connected":
        if trie.n > 12:
            raise DomainError("all-connected mode is limited to n <= 12")
        shapes = set()
        memo = {}

        def conn_shapes(u):
            """All connected-subtree shapes rooted at u (as label tuples)."""
            if u in memo:
                return memo[u]
            per_child = []
            for ch in trie.children(u):
                ch = int(ch)
                sub = conn_shapes(ch)
                per_child.append([None] + [(int(trie.label[ch]), s) for s in sub])
            out = []
            def rec(i, acc):
                if i == len(per_child):
                    out.append(tuple(x for x in acc if x is not None))
                    return
                for choice in per_child[i]:
                    rec(i + 1, acc + [choice])
            rec(0, [])
            memo[u] = out
            return out

        for u in range(1, trie.n + 1):
            for s in conn_shapes(u):
                if s:
                    shapes.add(s)
        for shape in shapes:
            ok = False
            for v in range(1, trie.n + 1):
                embeds, crosses = _embed_crossing(trie, shape, v, edges)
                if embeds and crosses:
                    ok = True
                    break
            if not ok:
                return False
        return True

    raise DomainError(f"unknown mode {mode!r}")


RELATIONS = ("out-set", "isomorphic", "isomorphic+label")


@dataclass
class QuotientReport:
    relation: str
    classes: list  # list of (start colex, end colex) inclusive
    omega: int | None = None

    @property
    def num_classes(self):
        return len(self.classes)


def quotient(trie, colex, relation):
    """Partition of colex positions into maximal convex runs of the base
    equivalence; for the finest relation also the edge count omega of the
    smallest order-preserving quotient automaton."""
    n = trie.n
    if relation == "out-set":
        key = [tuple(int(c) for c in trie.out_labels(int(colex.colex_to_pre[i])))
               for i in range(1, n + 1)]
    elif relation == "isomorphic":
        sig = trie.iso_signatures()
        key = [int(sig[int(colex.colex_to_pre[i])]) for i in range(1, n + 1)]
    elif relation == "isomorphic+label":
        sig = trie.iso_signatures()
        key = [(int(trie.label[int(colex.colex_to_pre[i])]),
                int(sig[int(colex.colex_to_pre[i])])) for i in range(1, n + 1)]
    else:
        raise DomainError(f"unknown relation {relation!r}")
    classes = []
    s = 1
    for i in range(2, n + 1):
        if key[i - 1] != key[s - 1]:
            classes.append((s, i - 1))
            s = i
    classes.append((s, n))
    rep = QuotientReport(relation=relation, classes=classes)
    if relation == "isomorphic+label":
        rep.omega = sum(trie.degree(int(colex.colex_to_pre[e])) for _, e in classes)
    return rep
