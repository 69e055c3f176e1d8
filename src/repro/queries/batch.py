"""Vectorized batch evaluation of range CQs — the simulation and server hot path.

The measurement loop behind every accuracy figure evaluates each range
CQ against all node positions per tick.  Doing that one query at a time
(:meth:`~repro.queries.range_query.RangeQuery.evaluate` plus two
``np.setdiff1d`` calls per query) costs O(ticks x queries x nodes) in
Python-loop overhead and sorting.  :class:`QueryEvalKernel` precomputes
per-query rectangle arrays (a stacked ``(Q, 4)`` bounds matrix) and a
cell->query bucket index over the statistics grid, then evaluates every
query against a position snapshot in one vectorized pass:

* candidate pruning by cell bucket (a CSR map from grid cells to the
  queries overlapping them), then
* a boolean containment matrix ``(Q, N)``, with missing/extra counts
  derived by mask arithmetic instead of per-query set differences.

Result sets (:meth:`QueryEvalKernel.evaluate`, what the CQ server
answers every period) skip the matrix: exact containment runs on the
bucket candidate pairs only, and the survivors are split per query.

Containment uses the exact half-open convention of
:class:`~repro.geo.Rect` (``x1 <= x < x2`` and ``y1 <= y < y2``), so
kernel results are always identical to the brute-force reference
``evaluate_queries``.  NaN coordinates compare false on every bound and
are therefore never contained, matching ``RangeQuery.evaluate``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo import Rect
from repro.queries.range_query import RangeQuery

#: Bucket grid resolution when the caller has no statistics grid to match.
DEFAULT_CELLS_PER_SIDE = 64

#: Above this many (query, node) pairs the dense containment matrix is
#: built via cell-bucket candidate pruning instead of full broadcasting.
_PRUNE_PAIR_THRESHOLD = 1 << 22


def stack_bounds(queries: list[RangeQuery]) -> np.ndarray:
    """Stacked query rectangles, shape ``(Q, 4)`` as ``x1, y1, x2, y2``."""
    bounds = np.empty((len(queries), 4), dtype=np.float64)
    for i, query in enumerate(queries):
        r = query.rect
        bounds[i, 0] = r.x1
        bounds[i, 1] = r.y1
        bounds[i, 2] = r.x2
        bounds[i, 3] = r.y2
    return bounds


@dataclass(frozen=True)
class BatchMeasurement:
    """Per-query accuracy measurements of one (truth, believed) snapshot pair.

    All arrays have shape ``(Q,)``.  ``containment_error`` is the paper's
    per-tick E_rr^C contribution ``(|missing| + |extra|) / |true set|``
    (NaN where the true set is empty); ``position_error`` is the mean
    distance between believed and true positions over the believed result
    set (NaN where that set is empty).  The boolean masks say which
    entries are valid, so accumulators can stay branch-free.
    """

    containment_error: np.ndarray
    has_true: np.ndarray
    position_error: np.ndarray
    has_believed: np.ndarray


class QueryEvalKernel:
    """Evaluates a fixed query workload against position snapshots, batched.

    Parameters:
        queries: the workload; order defines row order of all outputs.
        bounds: monitoring-space bounds for the cell bucket index
            (typically the trace / statistics-grid bounds).  ``None``
            disables pruning; the dense path is used unconditionally.
        cells_per_side: bucket grid resolution (the statistics grid's
            alpha when piggybacking on it).
    """

    def __init__(
        self,
        queries: list[RangeQuery],
        bounds: Rect | None = None,
        cells_per_side: int = DEFAULT_CELLS_PER_SIDE,
    ) -> None:
        self.queries = list(queries)
        self.bounds = bounds
        self.rects = stack_bounds(self.queries)
        self._scratch: np.ndarray | None = None
        # Column views reused every tick; [:, None] makes them broadcast
        # against a (N,) coordinate vector into the (Q, N) matrix.
        self._x1 = self.rects[:, 0][:, None]
        self._y1 = self.rects[:, 1][:, None]
        self._x2 = self.rects[:, 2][:, None]
        self._y2 = self.rects[:, 3][:, None]
        if bounds is not None:
            if cells_per_side < 1:
                raise ValueError("cells_per_side must be >= 1")
            self.cells_per_side = cells_per_side
            self._cell_w = bounds.width / cells_per_side
            self._cell_h = bounds.height / cells_per_side
            self._build_buckets()
        else:
            self.cells_per_side = 0
            self._bucket_offsets = None
            self._bucket_queries = None

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    # ------------------------------------------------------------------
    # Cell -> query bucket index
    # ------------------------------------------------------------------

    def _query_cell_ranges(self) -> np.ndarray:
        """Inclusive cell-index ranges ``(Q, 4)`` as i_lo, i_hi, j_lo, j_hi.

        Ranges are clamped into the grid, so queries sticking out of (or
        lying entirely outside) the bounds map onto the edge cells —
        exactly where out-of-bounds positions clamp to.  The bucket is a
        conservative superset: exact containment runs on candidates.

        Each bound goes through the same ``floor((v - origin) / cell)``
        arithmetic as :meth:`cell_indices`, and that arithmetic is
        monotone in ``v``: a node with ``x1 <= x < x2`` can land in
        neither a lower column than ``x1`` nor a higher one than ``x2``.
        The upper index is therefore ``floor`` of the open edge itself,
        not ``ceil(...) - 1`` — when the quotient is an exact integer, a
        node one ulp below ``x2`` can round up into that next column.
        """
        cells = self.cells_per_side
        b = self.bounds
        with np.errstate(invalid="ignore"):
            i_lo = np.floor((self.rects[:, 0] - b.x1) / self._cell_w)
            i_hi = np.floor((self.rects[:, 2] - b.x1) / self._cell_w)
            j_lo = np.floor((self.rects[:, 1] - b.y1) / self._cell_h)
            j_hi = np.floor((self.rects[:, 3] - b.y1) / self._cell_h)
        ranges = np.stack([i_lo, i_hi, j_lo, j_hi], axis=1)
        np.nan_to_num(ranges, copy=False)
        ranges = np.clip(ranges, 0, cells - 1).astype(np.int64)
        # Degenerate (zero-width) queries still occupy their lo cell.
        ranges[:, 1] = np.maximum(ranges[:, 1], ranges[:, 0])
        ranges[:, 3] = np.maximum(ranges[:, 3], ranges[:, 2])
        return ranges

    def _build_buckets(self) -> None:
        """CSR map flat cell id -> query ids whose rectangle overlaps it."""
        cells = self.cells_per_side
        n_cells = cells * cells
        ranges = self._query_cell_ranges()
        counts = np.zeros(n_cells, dtype=np.int64)
        entries: list[tuple[int, int]] = []
        for qi in range(len(self.queries)):
            i_lo, i_hi, j_lo, j_hi = ranges[qi]
            for ci in range(i_lo, i_hi + 1):
                base = ci * cells
                for cj in range(j_lo, j_hi + 1):
                    entries.append((base + cj, qi))
        offsets = np.zeros(n_cells + 1, dtype=np.int64)
        if entries:
            flat = np.array([e[0] for e in entries], dtype=np.int64)
            qids = np.array([e[1] for e in entries], dtype=np.int64)
            order = np.argsort(flat, kind="stable")
            flat, qids = flat[order], qids[order]
            counts = np.bincount(flat, minlength=n_cells)
            offsets[1:] = np.cumsum(counts)
            self._bucket_queries = qids
        else:
            self._bucket_queries = np.empty(0, dtype=np.int64)
        self._bucket_offsets = offsets

    def cell_indices(self, positions: np.ndarray) -> np.ndarray:
        """Flat bucket-cell ids for positions ``(N, 2)``, clamped to edges.

        NaN coordinates land in cell 0 (candidate generation skips them;
        exact containment would reject them anyway).  Clamping the
        quotient into ``[0, cells - 1]`` before truncating equals
        ``floor`` then clamp; ``fmax``/``fmin`` ignore NaN, so they also
        send NaN to 0 and ±inf to the edge cells in the same pass.
        """
        last = self.cells_per_side - 1
        ix = positions[:, 0] - self.bounds.x1
        ix /= self._cell_w
        np.fmin(np.fmax(ix, 0.0, out=ix), last, out=ix)
        iy = positions[:, 1] - self.bounds.y1
        iy /= self._cell_h
        np.fmin(np.fmax(iy, 0.0, out=iy), last, out=iy)
        flat = ix.astype(np.int64)
        flat *= self.cells_per_side
        flat += iy.astype(np.int64)
        return flat

    def queries_for_cell(self, ci: int, cj: int) -> np.ndarray:
        """Ids (workload row indices) of queries overlapping bucket cell."""
        if self._bucket_offsets is None:
            raise ValueError("kernel was built without bounds; no bucket index")
        flat = ci * self.cells_per_side + cj
        lo, hi = self._bucket_offsets[flat], self._bucket_offsets[flat + 1]
        return self._bucket_queries[lo:hi]

    # ------------------------------------------------------------------
    # Containment
    # ------------------------------------------------------------------

    def containment(self, positions: np.ndarray, prune: bool | None = None) -> np.ndarray:
        """Boolean containment matrix ``(Q, N)``.

        ``out[q, n]`` is true iff node ``n`` lies inside query ``q`` under
        the half-open convention.  ``prune=None`` picks the dense or
        bucket-pruned construction automatically by problem size.
        """
        positions = np.asarray(positions, dtype=np.float64)
        n = positions.shape[0]
        q = len(self.queries)
        if prune is None:
            prune = (
                self._bucket_offsets is not None
                and q * n > _PRUNE_PAIR_THRESHOLD
            )
        if prune and self._bucket_offsets is None:
            raise ValueError("kernel was built without bounds; cannot prune")
        if not prune:
            x, y = positions[:, 0], positions[:, 1]
            # In-place ufuncs with a reusable scratch buffer: one output
            # allocation per call instead of seven temporaries.  The
            # comparisons are unchanged, so the matrix is bit-identical
            # to the naive chained expression.
            out = np.empty((q, n), dtype=bool)
            scratch = self._scratch
            if scratch is None or scratch.shape != out.shape:
                scratch = self._scratch = np.empty_like(out)
            np.greater_equal(x, self._x1, out=out)
            np.less(x, self._x2, out=scratch)
            out &= scratch
            np.greater_equal(y, self._y1, out=scratch)
            out &= scratch
            np.less(y, self._y2, out=scratch)
            out &= scratch
            return out
        out = np.zeros((q, n), dtype=bool)
        if n == 0 or q == 0:
            return out
        q_idx, n_idx = self._contained_pairs(positions)
        out[q_idx, n_idx] = True
        return out

    def _candidate_pairs(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(query, node) candidate pairs from the cell buckets, vectorized.

        For each node, every query bucketed in the node's cell is a
        candidate; pairs come out grouped by node, nodes ascending.  The
        ragged gather walks the CSR arrays without a Python loop.  NaN
        rows are never contained, so they yield no candidates: a crowd
        of never-seen nodes clamped into cell 0 costs nothing.
        """
        flat = self.cell_indices(positions)
        starts = self._bucket_offsets[flat]
        counts = self._bucket_offsets[flat + 1] - starts
        counts[np.isnan(positions[:, 0]) | np.isnan(positions[:, 1])] = 0
        nodes = np.flatnonzero(counts)
        counts = counts[nodes]
        ends = np.cumsum(counts)
        n_idx = np.repeat(nodes, counts)
        # Pair p of a node whose pairs start at ends - counts reads its
        # bucket slice at starts + (p - (ends - counts)).
        slots = np.repeat(starts[nodes] - (ends - counts), counts)
        slots += np.arange(slots.size)
        return self._bucket_queries[slots], n_idx

    def _contained_pairs(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The candidate pairs that pass the exact half-open test, in order."""
        q_idx, n_idx = self._candidate_pairs(positions)
        x = positions[n_idx, 0]
        y = positions[n_idx, 1]
        rects = self.rects
        inside = (
            (x >= rects[q_idx, 0])
            & (x < rects[q_idx, 2])
            & (y >= rects[q_idx, 1])
            & (y < rects[q_idx, 3])
        )
        return q_idx[inside], n_idx[inside]

    def evaluate(self, positions: np.ndarray, prune: bool | None = None) -> list[np.ndarray]:
        """Per-query sorted node-id arrays — drop-in for ``evaluate_queries``.

        With a bucket index (``prune=None`` or ``True``) this is sparse:
        exact containment runs on the cell-bucket candidate pairs only,
        and no ``(Q, N)`` matrix is built.  Candidates come out grouped
        by node in ascending order, so a *stable* sort by query leaves
        each query's ids ascending; one ``bincount`` then splits the
        survivors per query.  ``prune=False`` (or a kernel without
        bounds) takes the dense matrix path.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if prune is None:
            prune = self._bucket_offsets is not None
        if not prune:
            matrix = self.containment(positions, prune=False)
            return [np.flatnonzero(row) for row in matrix]
        if self._bucket_offsets is None:
            raise ValueError("kernel was built without bounds; cannot prune")
        if not self.queries:
            return []
        q_idx, n_idx = self._contained_pairs(positions)
        # Stable sorts of <= 16-bit integers are radix sorts in numpy.
        by_query = q_idx.astype(np.min_scalar_type(len(self.queries)))
        n_idx = n_idx[np.argsort(by_query, kind="stable")]
        counts = np.bincount(q_idx, minlength=len(self.queries))
        return np.split(n_idx, np.cumsum(counts[:-1]))

    # ------------------------------------------------------------------
    # Accuracy measurement (the simulation hot path)
    # ------------------------------------------------------------------

    def measure(
        self, true_positions: np.ndarray, believed: np.ndarray
    ) -> BatchMeasurement:
        """One tick of accuracy accounting, all queries at once.

        ``true_positions`` are ground truth, ``believed`` the server's
        dead-reckoned view where never-reported nodes are NaN.  Matches
        the brute-force loop bit for bit: containment errors come from
        integer mask arithmetic (symmetric difference == missing + extra),
        and per-query position errors average exactly the same compacted
        distance arrays the reference implementation builds.
        """
        true_positions = np.asarray(true_positions, dtype=np.float64)
        believed = np.asarray(believed, dtype=np.float64)
        # Unknown nodes cannot appear in any result rectangle.
        believed_eval = np.where(np.isnan(believed), np.inf, believed)
        # One stacked containment pass covers both snapshots: elementwise
        # comparisons are independent per position row, so the split
        # halves equal two separate calls exactly.
        n = true_positions.shape[0]
        stacked = self.containment(
            np.concatenate((true_positions, believed_eval), axis=0)
        )
        true_mask = stacked[:, :n]
        believed_mask = stacked[:, n:]

        true_size = np.count_nonzero(true_mask, axis=1)
        sym_diff = np.count_nonzero(true_mask ^ believed_mask, axis=1)
        has_true = true_size > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            containment_error = np.where(
                has_true, sym_diff / np.maximum(true_size, 1), np.nan
            )

        believed_size = np.count_nonzero(believed_mask, axis=1)
        has_believed = believed_size > 0
        position_error = np.full(len(self.queries), np.nan)
        if has_believed.any():
            # NaN rows (never-reported nodes) yield NaN distances but are
            # never selected by believed_mask, so the warning is noise.
            with np.errstate(invalid="ignore"):
                distances = np.linalg.norm(believed - true_positions, axis=1)
            for qi in np.flatnonzero(has_believed):
                # Mean over the compacted per-query distance array — the
                # same reduction order as the brute-force reference, so
                # results match bitwise.
                position_error[qi] = float(distances[believed_mask[qi]].mean())
        return BatchMeasurement(
            containment_error=containment_error,
            has_true=has_true,
            position_error=position_error,
            has_believed=has_believed,
        )
