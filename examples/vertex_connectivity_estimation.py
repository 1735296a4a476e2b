#!/usr/bin/env python
"""Corollary 1.7: estimate vertex connectivity without computing it.

The dominating tree packing's size certifies a lower bound on k; the
upper bound is read off the run (the minimum degree, capped by twice the
guess Remark 3.1's loop accepted) — the first near-linear-time
approximation toward the Aho–Hopcroft–Ullman conjecture. This example
sweeps graph families through :class:`repro.api.GraphSession` (one
session per family: the exact oracle and the estimate share the same
canonical graph) and compares estimate against exact.

Run:  python examples/vertex_connectivity_estimation.py
"""

from repro.api import GraphSession

FAMILIES = [
    "harary:4,24",
    "harary:8,32",
    "clique_chain:4,7",
    "fat_cycle:3,7",
    "hypercube:5",
    "torus:5,6",
]


def main() -> None:
    header = f"{'family':<20} {'true k':>7} {'lower':>7} {'upper':>8} {'ok?':>5}"
    print(header)
    print("-" * len(header))
    for spec in FAMILIES:
        session = GraphSession(spec)
        estimate = session.connectivity(seed=7, exact=True)  # Õ(m) + oracle
        payload = estimate.payload
        k_true = payload["exact_k"]
        ok = (
            "yes"
            if payload["lower_bound"] <= k_true <= payload["upper_bound"]
            else "NO"
        )
        print(
            f"{spec:<20} {k_true:>7} {payload['lower_bound']:>7.1f} "
            f"{payload['upper_bound']:>8.1f} {ok:>5}"
        )
    print("\nlower bound is *certified* (any packing of size s implies "
          "k >= ceil(s));\nupper bound: k <= min degree always, and "
          "k <= 2 x the accepted guess w.h.p.")


if __name__ == "__main__":
    main()
