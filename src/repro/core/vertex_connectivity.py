"""Vertex connectivity approximation (Corollary 1.7).

The dominating tree packing works without knowing ``k`` and its size lands
in ``[Ω(k / log n), k]``:

* *lower end*: any fractional dominating tree packing of size σ
  certifies ``k ≥ σ`` — every dominating tree is connected and dominates
  both sides of any vertex cut ``S``, so it must contain a node of ``S``;
  summing weights, ``σ ≤ |S|`` for every cut. ``k`` is an integer, so
  ``k ≥ ⌈σ⌉``; the ceiling forgives the float noise of the weight sum
  (nine weights of 1/9 sum to ``1.0000000000000002``).
* *upper end*: read off the run of Remark 3.1's guess loop. The loop
  descends from ``n/2`` and any guess ``≤ k`` verifies w.h.p., so when it
  accepts ``k′`` the rejected guess before it (about ``2k′``) exceeded
  ``k``: ``k ≤ 2k′`` w.h.p. And ``k ≤ δ(G)`` always: removing the
  neighbors of a minimum-degree node isolates it. When the caller fixed
  ``k`` or no guess was accepted, ``δ(G)`` alone is the upper end.

:func:`approximate_vertex_connectivity` therefore returns the interval
``[⌈σ⌉, min(δ, 2k′)]`` together with a point estimate in ``Õ(m)``
centralized time. Theorem 1.1's ``σ = Ω(k / log n)`` is what makes it
``O(log n)`` wide; where σ stays near 1, as on dense graphs under the
default :class:`PackingParameters` (EXPERIMENTS.md E7), the width is δ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import networkx as nx

from repro.core.cds_packing import (
    CdsPackingResult,
    PackingParameters,
    fractional_cds_packing,
)
from repro.core.tree_packing import _TOLERANCE
from repro.core.virtual_graph import CdsIndex
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class VertexConnectivityEstimate:
    """An O(log n)-approximation interval for vertex connectivity."""

    lower_bound: float       # certified: k >= ⌈packing size⌉
    upper_bound: float       # k <= δ; w.h.p. k <= 2 · accepted guess
    estimate: float          # geometric midpoint of the interval
    packing_size: float
    n_trees: int

    def contains(self, k: int) -> bool:
        return self.lower_bound <= k <= self.upper_bound


def approximate_vertex_connectivity(
    graph: nx.Graph,
    params: Optional[PackingParameters] = None,
    rng: RngLike = None,
    index: Optional[CdsIndex] = None,
) -> VertexConnectivityEstimate:
    """Corollary 1.7: an O(log n)-approximation of vertex connectivity.

    Runs the try-and-error packing of Remark 3.1 (no prior knowledge of
    ``k``) and reads the interval off the run
    (:func:`estimate_from_packing`). ``index`` shares a prebuilt
    canonicalization (e.g. a :class:`repro.api.GraphSession`'s) across
    calls.
    """
    result = fractional_cds_packing(
        graph, k=None, params=params, rng=rng, index=index
    )
    return estimate_from_packing(graph, result)


def approximate_vertex_connectivity_distributed(
    graph: nx.Graph,
    k_guess: Optional[int] = None,
    params: Optional[PackingParameters] = None,
    rng: RngLike = None,
):
    """Corollary 1.7, distributed: Õ(D + √n) rounds of V-CONGEST.

    Runs the Appendix B protocol (with the guess loop of Remark 3.1 when
    ``k_guess`` is omitted) and returns
    ``(estimate, DistributedCdsResult)`` so callers can read both the
    approximation interval and the round accounting.
    """
    from repro.core.cds_packing_distributed import distributed_cds_packing

    dist = distributed_cds_packing(graph, k_guess, params, rng)
    return estimate_from_packing(graph, dist.result), dist


def estimate_from_packing(
    graph: nx.Graph, result: CdsPackingResult
) -> VertexConnectivityEstimate:
    """Turn a packing construction into a connectivity estimate.

    The lower end is the packing size rounded up; the upper end is the
    minimum degree, capped by twice the guess Remark 3.1's loop accepted
    (when it accepted one).
    """
    size = result.packing.size
    lower = float(max(1, math.ceil(size - _TOLERANCE)))
    upper = float(min(degree for _, degree in graph.degree()))
    if result.accepted:
        upper = min(upper, 2.0 * result.k_guess)
    upper = max(lower, upper)
    return VertexConnectivityEstimate(
        lower_bound=lower,
        upper_bound=upper,
        estimate=math.sqrt(lower * upper),
        packing_size=size,
        n_trees=len(result.packing),
    )
