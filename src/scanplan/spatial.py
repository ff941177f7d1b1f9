"""Spatial index for nearest-neighbor and radius queries (2D or 3D).

Thin wrapper over scipy's cKDTree that pins down the semantics the rest of
the pipeline relies on: nearest-neighbor ties break to the lowest point
index, and radius searches are closed balls (distance <= r), so results are
deterministic and reproducible across runs. No answer depends on the
tree's shape: a nearest-neighbor tie is resolved over the whole tied set,
k-nearest callers use the distances alone, and pairs come in no particular
order. k-nearest queries run on every core; each row's answer is
independent of how the rows are split across threads, so the output does
not depend on the core count. For the same reason a caller may query the
rows in blocks and get the same rows, bit for bit, as from one query:
:func:`scanplan.preprocess.neighbor_mean_distances` does, so that its
temporaries are (block, k) rather than (N, k).

Every tree splits at the sliding midpoint (Maneewongvatana & Mount, "It's
okay to be skinny, if your friends are fat", 1999): a cell is cut at the
middle of its points' widest extent, and the cut slides to the nearest
point when one side would be empty. No median is searched for, so a tree
builds faster than scipy's default median-split (balanced) one: 4.6 ms
against 7.8 ms for a 22,000-point deck cloud on a 2-vCPU VM. Leaves hold
up to ``_LEAF_SIZE`` = 32 points. A balanced tree has 2**k - 1 nodes of
72 bytes; a sliding-midpoint tree has as many as its splits need. At
scipy's default 16-point leaves that can be more (the filter's
53,696-point tree of a room sweep: 9,031 against 8,191), so the node
vector doubles once more and the process peaks higher. At 32-point leaves
every tree the pipeline builds on the benchmark clouds has fewer nodes
than the balanced one (that tree: 4,555), so it is smaller as well as
quicker to build.

scanplan uses only ``cKDTree`` from :mod:`scipy.spatial`, and that
package's ``__init__`` also imports ``_qhull``, ``distance``, ``transform``
and :mod:`scipy.linalg`. So the compiled module ``scipy.spatial._ckdtree``
is found by file location in scipy's ``spatial`` directory and executed on
its own, registered in ``sys.modules`` under its own name first, so that a
later ``import scipy.spatial`` reuses it and binds the same class (Python
sets a submodule as its package's attribute only when it loads it itself,
so ``scipy.spatial._ckdtree`` is then reached through ``sys.modules`` or
:func:`importlib.import_module`, not as an attribute). ``import
scanplan.cli`` loads 76 scipy modules instead of 175: a process that only
imports it peaks at 51.4 MB RSS instead of 66.9 MB and exits after 0.33 s
instead of 0.47 s (medians of 11 alternating runs, scipy 1.17, 2-vCPU VM).
Only the name of that private module is relied on; it has been
``_ckdtree`` since scipy 1.8. When the file is not there, or
``scipy.spatial._ckdtree`` is already imported, the class comes from
``from scipy.spatial import cKDTree`` as usual.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np
import scipy

_CKDTREE = "scipy.spatial._ckdtree"
_spec = None if _CKDTREE in sys.modules else importlib.machinery.FileFinder(
    str(Path(scipy.__file__).parent / "spatial"),
    (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
).find_spec(_CKDTREE)
if _spec is None:
    from scipy.spatial import cKDTree
else:
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_CKDTREE] = _module
    _spec.loader.exec_module(_module)
    cKDTree = _module.cKDTree

_LEAF_SIZE = 32


class KdTree:
    def __init__(self, points: np.ndarray):
        pts = np.ascontiguousarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(f"need a non-empty (N, d) point array, got {pts.shape}")
        self._points = pts
        self._tree = cKDTree(pts, leafsize=_LEAF_SIZE, balanced_tree=False)

    def __len__(self) -> int:
        return len(self._points)

    def nearest(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest indexed point for each query; ties go to the lowest index.

        Args:
            queries: (M, d) query coordinates.

        Returns:
            (indices, distances, runner-up distances), each (M,). The
            runner-up is the second-smallest distance from the query to any
            indexed point (``inf`` for a 1-point tree); it equals the
            distance when the nearest point is tied. Every other indexed
            point lies at least that far from the query, which lets
            :mod:`scanplan.registration` tell when a moved query must keep
            its neighbour without asking the tree again.
        """
        q = np.asarray(queries, dtype=float)
        # On a 1-point tree the runner-up comes back as inf.
        d2, i2 = self._tree.query(q, k=2)
        idx = i2[:, 0].astype(np.int64)
        dist = d2[:, 0]
        runner_up = d2[:, 1]
        # Exact distance ties are rare outside grids and duplicated points;
        # resolve them by enumerating the tied set and taking the lowest
        # index. The ball is a little wider than the distance, as r**2 can
        # round below a tied point's squared distance; a point in it ties
        # when its distance, computed as the tree computes it, is the
        # nearest distance.
        for row in np.nonzero(runner_up <= dist)[0]:
            ball = np.array(self._tree.query_ball_point(q[row], r=dist[row] * (1 + 1e-12)),
                            dtype=np.int64)
            d = np.sqrt(((self._points[ball] - q[row]) ** 2).sum(axis=1))
            tied = ball[d == dist[row]]
            if len(tied):
                idx[row] = tied.min()
        return idx, dist, runner_up

    def knearest(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k nearest points per query of a (M, d) batch, by increasing distance.

        Returns (indices, distances), each (M, k) for k >= 2 (scipy drops
        the k axis at k = 1, which no caller asks for). No tie-break guarantee
        beyond scipy's distance ordering; use :meth:`nearest` when the
        lowest-index rule matters.
        """
        if k > len(self._points):
            raise ValueError(f"k={k} exceeds the {len(self._points)} indexed points")
        dist, idx = self._tree.query(np.asarray(queries, dtype=float), k=k, workers=-1)
        return idx.astype(np.int64, copy=False), dist

    def pairs_within_radius(self, radius: float) -> np.ndarray:
        """Every pair of indexed points at distance <= radius.

        Returns a (P, 2) int64 array of index pairs (i, j) with i < j, each
        pair once, in no particular order.
        """
        pairs = self._tree.query_pairs(radius, output_type="ndarray")
        return pairs.astype(np.int64, copy=False)

    def within_radius_batch(self, queries: np.ndarray, radius: float) -> list:
        """Indices of all points with distance <= radius, per row of a (M, d) batch."""
        q = np.atleast_2d(np.asarray(queries, dtype=float))
        return list(self._tree.query_ball_point(q, r=radius))
