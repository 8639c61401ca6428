"""
One-way square: grid routes against the closed-form oracle
==========================================================

Flow on the unit square only moves up and to the right.  Between points
that are ordered by the flow the zigzag distance is just the straight
line; otherwise the best route is a detour whose length the planar oracle
computes in closed form.  The discrete grid overshoots by at most the
lattice step ratio plus a boundary term, and the error shrinks as the
grid is refined.
"""

import numpy as np

from dirmetric import (
    DirectedMetricSpace,
    GridSpec,
    directed_square_grid,
    map_distortion,
    square_grid_graph,
    square_zigzag_oracle,
    step_ratio,
    zigzag_from_edges,
)

print(f"lattice step ratio for the default step set: {step_ratio():.6f}")

# A few representative routes at k = 64.
spec = GridSpec(k=64)
grid = DirectedMetricSpace.from_space(directed_square_grid(spec))
labels = grid.space.labels

def at(x, y):
    # snap to the nearest lattice point of the current grid
    gx, gy = round(x * spec.k) / spec.k, round(y * spec.k) / spec.k
    return labels.index(f"({gx:.10g},{gy:.10g})")

for p, q in [((0.25, 0.25), (0.75, 0.75)), ((1.0, 0.0), (0.0, 1.0)), ((0.8, 0.1), (0.1, 0.8))]:
    d_grid = grid.zz[at(*p), at(*q)]
    d_true = square_zigzag_oracle(p, q)
    print(f"{p} -> {q}: grid {d_grid:.6f}  oracle {d_true:.6f}  ratio {d_grid / d_true:.4f}")

# The identity map between the base (Euclidean) and zigzag forms of the
# same grid has distortion close to 2 - sqrt(2): the worst pairs are the
# antichain corners (1,0) and (0,1).
ident = tuple(range(grid.n))
dis = map_distortion(ident, grid.space.base, grid.zz)
print(f"identity distortion at k=64: {dis:.6f}   (2 - sqrt(2) = {2 - np.sqrt(2):.6f})")

# Refinement study: worst and mean error against the oracle at the true
# sample points for a fixed random cloud.  Only the rows we need are
# computed; the full k = 128 matrix would not fit in memory.  The grid
# comes as coordinates and an (m, 3) array of (src, dst, length) edges,
# which zigzag_from_edges reads directly, with no base matrix.
rng = np.random.default_rng(3)
pts = rng.random((40, 2))
iu = np.triu_indices(len(pts), 1)
oracle = np.array([[square_zigzag_oracle(p, q) for q in pts] for p in pts])
rows = []
for k in (16, 32, 64, 128):
    snap = np.round(pts * k).astype(int)
    idx = snap[:, 0] * (k + 1) + snap[:, 1]
    _, edges = square_grid_graph(GridSpec(k=k))
    sub = zigzag_from_edges((k + 1) ** 2, edges, sources=idx)[:, idx]
    err = np.abs(sub - oracle)[iu]
    rows.append((k, float(err.max()), float(err.mean())))
    print(f"k={k:4d}  max error {rows[-1][1]:.5f}  mean error {rows[-1][2]:.5f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    ks = [r[0] for r in rows]
    plt.figure(figsize=(5, 3.2))
    plt.loglog(ks, [r[1] for r in rows], "o-", label="max error")
    plt.loglog(ks, [r[2] for r in rows], "s-", label="mean error")
    plt.loglog(ks, [3.0 / k for k in ks], "k--", label="3/k")
    plt.xlabel("grid resolution k")
    plt.ylabel("|grid - oracle|")
    plt.legend()
    plt.tight_layout()
    plt.savefig("square_grid_error.png", dpi=120)
    print("wrote square_grid_error.png")
except ImportError:
    print("matplotlib not available, skipping the plot")
