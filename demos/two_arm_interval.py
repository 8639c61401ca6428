"""
Three distances that disagree on the two-arm interval
=====================================================

The interval [-1, 1] with every edge directed away from the origin, versus
the same interval with every edge directed toward it.  The two spaces have
identical zigzag matrices, so the correspondence-based distance is 0.  The
map-based distance is 1/2: any structure-preserving map has to send each
arm somewhere monotone, and the best you can do is collapse half of it.
And no correspondence can match reachability at all, so the strictest
distance is infinite.  One pair of spaces, three answers.
"""

from dirmetric import (
    ChainReport,
    DirectedMetricSpace,
    SearchBudget,
    gh_distance,
    reverse,
    source_sink_interval,
)

k = 8
X = DirectedMetricSpace.from_space(source_sink_interval(k))
Y = DirectedMetricSpace.from_space(reverse(X.space))

# One ChainReport holds all three distances of the pair; each is
# computed on first read, and the searches behind them run once.
chain = ChainReport(X, Y)
rep_dis = chain.dis
print(f"map distortion distance : {rep_dis.value}  (method={rep_dis.method}, exact={rep_dis.exact})")
# 17 points per side is past the exact-search cap, so the 1/2 comes from
# seeded local search over map pairs; exact=False reports that honestly.

rep_cdis = chain.cdis
print(f"d-correspondence distance: {rep_cdis.value}  (method={rep_cdis.method})")
# "propagation" means the infinity is proved, not a search timeout: no
# candidate partner survives the reachability compatibility constraints.

# gh ignores edge directions once the zigzag matrices are built, so it
# cannot tell the two spaces apart.  A widened budget makes the k = 2
# search exhaustive, so the zero comes with a proof, not a heuristic.
X2 = DirectedMetricSpace.from_space(source_sink_interval(2))
Y2 = DirectedMetricSpace.from_space(reverse(X2.space))
rep_gh = gh_distance(X2, Y2, budget=SearchBudget(exhaustive_gh=25))
print(f"zigzag GH distance (k=2) : {rep_gh.value}  (method={rep_gh.method}, exact={rep_gh.exact})")

# The certificate behind the 1/2 is a pair of fold maps; its objective is
# twice the reported distance.
cert = rep_dis.certificate
print("forward map :", cert.forward)
print("backward map:", cert.backward)
print("certificate objective:", cert.objective(X.zz, Y.zz))
