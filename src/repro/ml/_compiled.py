"""Fitted tree ensembles compiled into flat node arrays.

Inference on a histogram ensemble used to bin the input
(:meth:`BinMapper.transform`) and then walk every tree separately
(:meth:`HistTree.predict_value`), one Python stack walk per tree per
call.  :class:`CompiledEnsemble` replaces both with one numpy kernel:

* **Flat nodes.**  All trees are concatenated into contiguous arrays —
  feature, left/right child, leaf value — with child indices offset to
  the concatenation.
* **Raw-value thresholds.**  A bin-coded split ``bin(x) <= b`` is
  rewritten over the raw feature value.  Bins are
  ``searchsorted(edges, x, side="right")``, i.e. the number of edges
  ``<= x``, so for finite ``x`` the split is ``x < edges[b]`` when
  ``b < len(edges)`` and always true otherwise (stored as a ``+inf``
  threshold).  NaN and ±inf take the missing bin, so they go left exactly
  when ``missing_bin <= b`` — one bit per node.  Inference never bins.
* **Level-synchronous traversal.**  Every (row, tree) pair starts at its
  tree's root and all pairs not yet at a leaf advance one level per numpy
  step.
* **Tree-order accumulation.**  Leaf values are summed with a sequential
  ``np.cumsum`` over a prepended start column (``0`` or XGBoost's base
  score), so every float addition happens in the same order as the
  per-tree loop and the scores are bitwise identical to it.

The compiled arrays are derived state: :func:`compiled_ensemble` builds
them on first use and rebuilds them whenever the model's ``trees_`` or
bin mapper is replaced.  They are never serialised.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ml._binning import BinMapper
from repro.ml._hist import HistTree

#: Upper bound on (row, tree, output) elements scored at once; larger
#: inputs are split into row chunks so memory stays bounded.
_CHUNK_ELEMENTS = 1 << 20


class CompiledEnsemble:
    """A grid of fitted trees flattened for raw-feature inference.

    Args:
        rounds: trees in accumulation order, one inner sequence per round
            and one tree per output column within a round (a forest is a
            sequence of one-tree rounds).
        mapper: the bin mapper the trees were grown on.
        scale: factor applied to every leaf value (the learning rate of a
            boosted model; ``None`` leaves the values as they are).
    """

    def __init__(self, rounds: Sequence[Sequence[HistTree]],
                 mapper: BinMapper, scale: Optional[float] = None) -> None:
        trees = [tree for round_trees in rounds for tree in round_trees]
        self.n_rounds = len(rounds)
        self.n_trees = len(trees)
        self.n_features = len(mapper.edges_)
        sizes = np.asarray([len(tree) for tree in trees], dtype=np.int64)
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        offset = np.repeat(starts, sizes)

        def column(name: str) -> np.ndarray:
            return np.concatenate([np.asarray(getattr(tree, name),
                                              dtype=np.int64)
                                   for tree in trees])

        # A leaf's feature and children are never read: traversal only
        # advances pairs that sit on an internal node.
        self.feature = column("feature")
        self.is_leaf = self.feature < 0
        self.left = offset + column("left")
        self.right = offset + column("right")
        self.roots = starts
        self.internal_roots = ~self.is_leaf[starts]

        bins = column("bin_threshold")
        self.threshold = np.full(bins.size, np.inf, dtype=np.float64)
        self.missing_left = np.zeros(bins.size, dtype=bool)
        for f in np.unique(self.feature[~self.is_leaf]):
            nodes = np.flatnonzero(self.feature == f)
            edges = mapper.edges_[f]
            b = bins[nodes]
            below = b < len(edges)
            self.threshold[nodes[below]] = edges[b[below]]
            self.missing_left[nodes] = mapper.missing_bin_[f] <= b

        values = np.stack([np.asarray(v, dtype=np.float64).ravel()
                           for tree in trees for v in tree.value])
        self.values = values if scale is None else scale * values
        self.width = (len(trees) // self.n_rounds) * values.shape[1]

    def leaves(self, X: np.ndarray) -> np.ndarray:
        """Global leaf node reached by each (row, tree) pair, ``(n, trees)``."""
        n, d = X.shape
        flat = X.ravel()
        finite = np.isfinite(flat)
        node = np.tile(self.roots, n)
        row_base = np.repeat(np.arange(n, dtype=np.int64) * d, self.n_trees)
        active = np.flatnonzero(np.tile(self.internal_roots, n))
        while active.size:
            current = node[active]
            pos = row_base[active] + self.feature[current]
            go_left = np.where(finite[pos],
                               flat[pos] < self.threshold[current],
                               self.missing_left[current])
            nxt = np.where(go_left, self.left[current], self.right[current])
            node[active] = nxt
            active = active[~self.is_leaf[nxt]]
        return node.reshape(n, self.n_trees)

    def accumulate(self, X, start: float = 0.0) -> np.ndarray:
        """``start`` plus every tree's (scaled) leaf value, in tree order.

        Returns ``(n_rows, width)`` where ``width`` is trees-per-round
        times the leaf-value length.  Raises :class:`ValueError` on a
        non-2-D input or one with the wrong number of features.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-dimensional")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"X has {X.shape[1]} features, model was fitted on "
                f"{self.n_features}")
        n = X.shape[0]
        out = np.empty((n, self.width), dtype=np.float64)
        chunk = max(1, _CHUNK_ELEMENTS // (self.n_trees * self.width))
        for lo in range(0, n, chunk):
            rows = X[lo:lo + chunk]
            terms = np.empty((rows.shape[0], self.n_rounds + 1, self.width),
                             dtype=np.float64)
            terms[:, 0] = start
            terms[:, 1:] = self.values[self.leaves(rows)].reshape(
                rows.shape[0], self.n_rounds, self.width)
            out[lo:lo + chunk] = np.cumsum(terms, axis=1)[:, -1]
        return out


def compiled_ensemble(model, scale: Optional[float] = None
                      ) -> CompiledEnsemble:
    """The model's compiled ensemble, built on first use.

    ``model.trees_`` is either a forest's flat list of trees or a boosted
    model's list of rounds.  The cache lives in ``model._compiled``
    together with the ``trees_`` and ``_mapper`` objects it was built
    from; replacing either (a refit or a load) rebuilds it.
    """
    cached = model._compiled
    if (cached is None or cached[0] is not model.trees_
            or cached[1] is not model._mapper):
        trees = model.trees_
        rounds = ([[tree] for tree in trees]
                  if isinstance(trees[0], HistTree) else trees)
        cached = (trees, model._mapper,
                  CompiledEnsemble(rounds, model._mapper, scale))
        model._compiled = cached
    return cached[2]
