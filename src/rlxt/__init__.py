"""Run-length compressed trie index with count/locate queries.

Build a :class:`~rlxt.rindex.RIndex` from a :class:`~rlxt.trie.LabeledTrie`
to answer count and locate (pre-order ids of all nodes whose root path ends
with a pattern); the sampling-based engine in :mod:`rlxt.baseline` and the
brute-force helpers in :mod:`rlxt.trie` serve as cross-checks.
"""

from .baseline import SampledLocate, TreeCover, XbwtNav, build_sampled
from .measures import (
    AttractorSet,
    check_entropy_bounds,
    entropy_hk,
    gamma_r,
    quotient,
    verify_attractor,
)
from .rindex import RIndex, build_index
from .rlxbwt import (
    RlXbwt,
    backward_extend,
    build_rl_xbwt,
    cr,
    xbwt_rank,
    xbwt_successor,
)
from .storage import load, save
from .topology import BpsTopology
from .trie import (
    Alphabet,
    ColexOrder,
    LabeledTrie,
    build_from_edges,
    build_from_strings,
    colex_sort,
    is_isomorphic,
    oracle_locate,
)

__all__ = [
    "Alphabet",
    "AttractorSet",
    "BpsTopology",
    "ColexOrder",
    "LabeledTrie",
    "RIndex",
    "RlXbwt",
    "SampledLocate",
    "TreeCover",
    "XbwtNav",
    "backward_extend",
    "build_from_edges",
    "build_from_strings",
    "build_index",
    "build_rl_xbwt",
    "build_sampled",
    "check_entropy_bounds",
    "colex_sort",
    "cr",
    "entropy_hk",
    "gamma_r",
    "is_isomorphic",
    "load",
    "oracle_locate",
    "quotient",
    "save",
    "verify_attractor",
    "xbwt_rank",
    "xbwt_successor",
]
