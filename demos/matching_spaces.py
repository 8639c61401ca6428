"""
Recognizing the same space under a relabeling
=============================================

Shuffle the points of a random directed space and ask the distances
whether anything changed.  The map searches recover a distortion of zero
together with a certified pair of mutually inverse structure-preserving
maps.  Inflate the edge lengths instead and the distance moves away from
zero by at least half the inflation.
"""

import numpy as np

from dirmetric import (
    ChainReport,
    DirectedMetricSpace,
    FiniteDSpace,
    distortion_distance,
    random_space,
)

rng = np.random.default_rng(42)
s = random_space(rng, 5)
X = DirectedMetricSpace.from_space(s)

# Shuffle the labels.
perm = rng.permutation(s.n)
inv = np.argsort(perm)
base = s.base[np.ix_(perm, perm)]
edges = tuple((int(inv[a]), int(inv[b]), l) for a, b, l in s.edges)
Y = DirectedMetricSpace.from_space(FiniteDSpace(base=base, edges=edges))

rep = distortion_distance(X, Y)
print(f"distortion distance after relabeling: {rep.value}  (exact={rep.exact})")
print("certificate is a d-isometry:", rep.certificate.is_disometry(X, Y))
print("forward map :", rep.certificate.forward)
print("backward map:", rep.certificate.backward)

# Stretch every edge by +0.1; the spaces are genuinely different now.
stretched = FiniteDSpace(base=s.base, edges=tuple((a, b, l + 0.1) for a, b, l in s.edges))
Z = DirectedMetricSpace.from_space(stretched)
chain = ChainReport(X, Z)  # both distances of the pair, from one set of searches
rep2 = chain.dis
print(f"\ndistortion distance after stretching edges by 0.1: {rep2.value:.4f}")
rep3 = chain.gh
print(f"zigzag GH distance for the same pair              : {rep3.value:.4f}")
# Both are at least 0.05 = half the smallest pairwise discrepancy.  gh can
# be smaller than the map distance but never larger: both come from the
# pair's ChainReport, where an exact gh is the least over all correspondences,
# graphs of map pairs included, and an inexact gh takes the graphs of the
# map pair dis found whenever they score lower.
