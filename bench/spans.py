"""Traced run: spans around rlxt's public functions and methods, recorded
from outside the library, and the per-layer metrics derived from them.

Each name is patched where it is looked up (``rlxt.rindex.backward_extend``,
``rlxt.storage.colex_sort``, methods on ``BpsTopology`` and so on) and
restored afterwards; nothing under ``src/`` is edited. A span holds its
name, start, end, parent span and query id. Spans stay in memory in flat
arrays; each traced round's are reduced to per-layer metrics when the round
ends, and the last round's are written out when the run ends.
"""

from __future__ import annotations

import gc
import sys
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

from rlxt import bits, rindex, rlxbwt, storage, topology, trie

# (owner, attribute, span name): functions patched in the module that calls them
FUNCTIONS = [
    (trie, "parse_strings_file", "trie.parse_strings_file"),
    (rindex, "colex_sort", "trie.colex_sort"),
    (storage, "colex_sort", "trie.colex_sort"),
    (rindex, "build_rl_xbwt", "rlxbwt.build_rl_xbwt"),
    (storage, "reconstruct_trie", "rlxbwt.reconstruct_trie"),
    (rindex, "backward_extend", "rlxbwt.backward_extend"),
    (rlxbwt, "xbwt_rank", "rlxbwt.xbwt_rank"),
    (rindex, "xbwt_successor", "rlxbwt.xbwt_successor"),
    (rindex, "cr", "rlxbwt.cr"),
    (rindex, "run_head_preorder", "rlxbwt.run_head_preorder"),
    (rindex, "build_index", "rindex.build_index"),
    (storage, "save_rindex", "storage.save_rindex"),
    (storage, "load_bytes", "storage.load_bytes"),
]
WAVELET = ("rank", "select", "range_rank", "access")
SPARSE = ("contains", "rank1", "select1", "succ1", "pred1")
DENSE = ("get", "rank1", "select1", "select0")
TOPOLOGY = ("depth", "cbr", "sr", "lca", "isd", "next_marked_in_subtree",
            "lowest_covering_ancestor")
METHODS = (
    [(bits.WaveletSeq, m, f"bits.WaveletSeq.{m}") for m in WAVELET]
    + [(bits.SparseBitVec, m, f"bits.SparseBitVec.{m}") for m in SPARSE]
    + [(bits.BitVec, m, f"bits.BitVec.{m}") for m in DENSE]
    + [(topology.BpsTopology, m, f"topology.{m}") for m in TOPOLOGY]
    + [(rindex.RIndex, "toehold_search", "rindex.toehold_search")]
)
LAQ_NEAR_MAX = 8  # BpsTopology.laq walks parents for ell <= 8, scans excess beyond
CASES = ("1", "2.1", "2.2.1", "2.2.2")
COMPONENTS = ("topo", "rlx", "spi", "colors", "samples", "isc_tables", "pre_to_colex")

# span names reported with only their self time
SELF_ONLY = ("trie.parse_strings_file", "rlxbwt.build_rl_xbwt", "rlxbwt.reconstruct_trie",
             "topology.from_bytes", "rindex.build_index", "storage.save_rindex",
             "storage.load_bytes")
# span names reported with call count and self time
CALLS_AND_SELF = (
    ["trie.colex_sort"]
    + [f"rlxbwt.{f}" for f in ("backward_extend", "xbwt_rank", "xbwt_successor", "cr",
                                "run_head_preorder")]
    + [f"bits.WaveletSeq.{m}" for m in WAVELET]
    + [f"bits.SparseBitVec.{m}" for m in SPARSE]
    + [f"bits.BitVec.{m}" for m in DENSE]
    + [f"topology.{m}" for m in ("depth", "cbr", "sr", "laq_near", "laq_far", "lca", "isd",
                                  "next_marked_in_subtree", "lowest_covering_ancestor")]
    + ["rindex.toehold_search"]
)


def _case_name(case):
    return "rindex.phi.case_" + case.replace(".", "_")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._stack = [-1]
        self.reset()

    def reset(self):
        """Drop the recorded spans; a new traced round starts."""
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.query_kind = []

    def _id(self, label):
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def begin_query(self, kind):
        """Spans recorded from now on belong to a new query of this kind."""
        self.query_kind.append(kind)

    def _wrap(self, fn, pick_name, after=None):
        stack = self._stack
        pc = time.perf_counter

        def wrapper(*args, **kwargs):
            name, start, end = self.name, self.start, self.end
            i = len(start)
            name.append(pick_name(args, kwargs))
            self.parent.append(stack[-1])
            self.query.append(len(self.query_kind) - 1)
            end.append(0.0)
            stack.append(i)
            before = after(args, None) if after else None
            start.append(pc())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = pc()
                stack.pop()
                if after:
                    name[i] = after(args, before)

        return wrapper

    def _fixed(self, label):
        nid = self._id(label)
        return lambda args, kwargs: nid

    @contextmanager
    def installed(self, on=True):
        """Patch every traced name while the block runs; restore afterwards."""
        if not on:
            yield
            return
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for owner, attr, label in FUNCTIONS + METHODS:
            patch(owner, attr, self._wrap(getattr(owner, attr), self._fixed(label)))
        near, far = self._id("topology.laq_near"), self._id("topology.laq_far")

        def laq_name(args, kwargs):
            ell = args[2] if len(args) > 2 else kwargs["ell"]
            return far if ell > LAQ_NEAR_MAX else near

        patch(topology.BpsTopology, "laq", self._wrap(topology.BpsTopology.laq, laq_name))
        patch(topology.BpsTopology, "from_bytes", staticmethod(
            self._wrap(topology.BpsTopology.from_bytes, self._fixed("topology.from_bytes"))))
        case_ids = [self._id(_case_name(c)) for c in CASES]
        no_case = self._id("rindex.phi.no_case")

        def phi_case(args, before):
            counters = args[0].case_counters
            now = tuple(counters[c] for c in CASES)
            if before is None:
                return now
            for k, (a, b) in enumerate(zip(before, now)):
                if b != a:
                    return case_ids[k]
            return no_case

        patch(rindex.RIndex, "phi", self._wrap(rindex.RIndex.phi, self._fixed("rindex.phi"),
                                               after=phi_case))
        try:
            yield
        finally:
            for owner, attr, old in reversed(saved):
                setattr(owner, attr, old)

    # -- analysis -------------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        query = np.frombuffer(self.query, dtype=np.int32).astype(np.int64)
        return name, start, end, parent, query

    def round_metrics(self, factor, occurrences):
        """Per-layer metrics of the spans of one traced round; times are
        scaled by the round's machine-speed factor."""
        name, start, end, parent, query = self._arrays()
        nn = len(self.names)
        dur = (end - start) * factor
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(name, minlength=nn)
        self_s = np.bincount(name, weights=self_time, minlength=nn)
        incl_s = np.bincount(name, weights=dur, minlength=nn)

        def nid(label):
            return self._ids.get(label, -1)

        def calls_of(label):
            k = nid(label)
            return int(calls[k]) if k >= 0 else 0

        def self_of(label):
            k = nid(label)
            return float(self_s[k]) if k >= 0 else 0.0

        out = {}
        for label in SELF_ONLY:
            out[f"{label}.self_s"] = (self_of(label), "s")
        for label in CALLS_AND_SELF:
            out[f"{label}.calls"] = (calls_of(label), "count")
            out[f"{label}.self_s"] = (self_of(label), "s")

        # wavelet operations per backward step, over count and locate queries
        kinds = np.asarray(self.query_kind + ["none"])
        in_query = np.isin(kinds[query], ("count", "locate"))
        wavelet = np.isin(name, [nid(f"bits.WaveletSeq.{m}") for m in WAVELET])
        steps = np.count_nonzero(in_query & (name == nid("rlxbwt.backward_extend")))
        out["rlxbwt.wavelet_ops_per_step"] = (
            np.count_nonzero(in_query & wavelet) / max(steps, 1), "ops/step")

        # topology and bits calls made inside phi, per occurrence located
        phi_ids = [nid(_case_name(c)) for c in CASES] + [nid("rindex.phi.no_case")]
        is_phi = np.isin(name, phi_ids)
        inside = np.zeros(len(name), dtype=bool)
        for _ in range(64):  # propagate "has a phi ancestor" down the span tree
            nxt = has_parent & (inside[parent] | is_phi[parent])
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        layer_ops = np.isin(name, [k for label, k in self._ids.items()
                                   if label.startswith(("bits.", "topology."))])
        out["rindex.phi.calls"] = (int(np.count_nonzero(is_phi)), "count")
        for c in CASES:
            k = nid(_case_name(c))
            n_calls = int(calls[k]) if k >= 0 else 0
            out[f"{_case_name(c)}.calls"] = (n_calls, "count")
            out[f"{_case_name(c)}.us_per_call"] = (
                float(incl_s[k]) / n_calls * 1e6 if n_calls else 0.0, "us")
        out["rindex.ops_per_occ"] = (
            np.count_nonzero(inside & layer_ops) / max(occurrences, 1), "ops/occ")
        return out

    def write(self, path):
        name, start, end, parent, query = self._arrays()
        np.savez(path, names=np.asarray(self.names), name=name.astype(np.int32),
                 start=start, end=end, parent=parent.astype(np.int32),
                 query=query.astype(np.int32), query_kind=np.asarray(self.query_kind))


def deep_size(obj, seen):
    """Bytes held by obj and everything it references that is not in seen."""
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total


def storage_metrics(blob):
    """Section sizes of the saved index and resident bytes per component."""
    _, idx, _, sections = storage.load_bytes(blob)
    out = {f"storage.section_bytes.{s}": (len(sections[s]), "bytes")
           for s in storage.RINDEX_SECTIONS}
    r = idx.rlx.run_stats()[0]
    machinery = 8 * sum(len(sections[s]) for s in storage.MACHINERY)
    out["storage.machinery_bits_per_run"] = (machinery / max(r, 1), "bits/run")
    seen = set()
    for comp in COMPONENTS:
        out[f"storage.resident_bytes.{comp}"] = (deep_size(getattr(idx, comp), seen), "bytes")
    return out
