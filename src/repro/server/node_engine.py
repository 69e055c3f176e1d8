"""Vectorized node-side engine for the systems loop.

:class:`~repro.server.system.LiraSystem.tick` must, every sampling
period, answer two questions for the whole population: *which base
station serves each node?* (hand-off + subset download bookkeeping) and
*which update throttler Δ applies at each node's position?*  The
reference implementation walks a Python list of
:class:`~repro.server.protocol.MobileNode` objects, scanning the
station list and probing a per-node 5×5 grid index — an O(N)
interpreted loop that dominates the systems-loop runtime.

This module provides two interchangeable engines behind one interface:

* :class:`ObjectNodeEngine` — the original per-``MobileNode`` loop; the
  reference implementation the vectorized engine is validated against.
* :class:`VectorNodeEngine` — struct-of-arrays node state (current
  station slot, installed subset version, hand-off / install counters)
  with two batched lookups per tick:

  1. **station assignment** via a precomputed *candidate raster* over
     the monitoring bounds: each raster cell stores the small set of
     stations that could possibly serve any point inside it (covering
     candidates by disk–cell distance, nearest-overall candidates by
     the min/max-distance pruning bound, less the stations a
     whole-cell-covering station dominates), so most nodes resolve by
     one table read and the rest by an exact argmin over a handful of
     gathered candidates instead of a scan of every station;
  2. **threshold lookup** via per-station *threshold rasters*: the
     station's region subset is rasterized onto the irregular grid
     spanned by its region edges (so every rect boundary is a raster
     line exactly), and ``current_threshold`` for all nodes attached to
     that station is one ``searchsorted`` + fancy-indexing gather.

Both engines produce bit-identical thresholds and counters: ties in
station assignment resolve to the first station in list order (the
``min()`` the object path uses), overlapping regions resolve to the
lowest region index (the ``_SubsetIndex`` bucket order), and points
outside every stored region — or on a stale/lost subset — fall back to
the conservative default Δ⊢ exactly where the object path does.
"""

from __future__ import annotations

from typing import Any, Protocol

import numpy as np

from repro.core.plan import SheddingRegion
from repro.geo import Rect
from repro.server.base_station import BaseStation
from repro.server.protocol import BaseStationNetwork, MobileNode, RegionSubset


class SubsetProvider(Protocol):
    """What the vector engine needs from the plan-dissemination layer.

    :class:`BaseStationNetwork` satisfies it directly; the sharded
    deployment satisfies it with a directory view merging the per-shard
    networks, so one engine can serve nodes attached to stations owned
    by any shard.
    """

    stations: list[BaseStation]

    def subset_or_none(self, station_id: int) -> RegionSubset | None: ...

#: Engine names accepted by :class:`~repro.server.system.LiraSystem`.
NODE_ENGINES = ("vector", "object")

#: Safety inflation applied to the candidate-pruning bounds so that
#: last-ulp rounding in the precomputed cell distances can only *grow*
#: a cell's candidate set, never drop the true winner from it.
_PRUNE_EPS = 1e-9


class StationAssigner:
    """Batched station assignment over a precomputed candidate raster.

    Replicates :meth:`BaseStationNetwork.station_for` for arrays of
    positions: the nearest *covering* station wins; positions covered by
    no station fall back to the nearest station overall; distance ties
    resolve to the earliest station in list order (``np.argmin`` over
    candidates sorted by list index picks the first minimum, matching
    the object path's ``min()``).

    The raster stores, per cell, every station that could be the winner
    for *some* point in the cell: stations whose coverage disk reaches
    the cell, plus stations whose minimum distance to the cell does not
    exceed the smallest maximum distance (the classic nearest-neighbour
    pruning bound), minus every station *dominated* in the cell — one
    that some station covering the whole cell beats everywhere in it.
    Most cells are left with a single candidate, which needs no
    distance computation at all.  Positions outside the raster bounds
    (rare; traces are generated inside them) are resolved against the
    full station list, so the assignment is exact everywhere.
    """

    def __init__(
        self,
        stations: list[BaseStation],
        bounds: Rect,
        resolution: int | None = None,
    ) -> None:
        if not stations:
            raise ValueError("at least one base station is required")
        self.stations = stations
        self.bounds = bounds
        self._cx = np.array([s.center.x for s in stations], dtype=np.float64)
        self._cy = np.array([s.center.y for s in stations], dtype=np.float64)
        self._radius = np.array([s.radius for s in stations], dtype=np.float64)
        self.station_ids = np.array(
            [s.station_id for s in stations], dtype=np.int64
        )
        n_stations = len(stations)
        #: Smallest unsigned dtype holding every slot: grouping nodes by
        #: station sorts keys of this type (NumPy radix-sorts 8- and
        #: 16-bit integers).
        self.slot_dtype = np.min_scalar_type(n_stations - 1)
        if resolution is None:
            # ~9 cells per station spacing: fine enough that most cells
            # lie wholly inside one station's dominance zone.
            resolution = int(np.clip(9 * np.ceil(np.sqrt(n_stations)), 8, 128))
        self.resolution = resolution
        self._cell_w = bounds.width / resolution or 1.0
        self._cell_h = bounds.height / resolution or 1.0
        self._candidates, self._n_candidates = self._build_raster()

    def _build_raster(self) -> tuple[np.ndarray, np.ndarray]:
        res = self.resolution
        b = self.bounds
        # The cells form a product grid, so the per-axis gaps between a
        # cell and a station are (res, stations) tables, and the cell
        # distances are sums over one x row and one y row.  Flattened
        # cells are x-major like the plan raster: flat = i * res + j.
        x1 = b.x1 + np.arange(res) * self._cell_w
        y1 = b.y1 + np.arange(res) * self._cell_h
        x2, y2 = x1 + self._cell_w, y1 + self._cell_h

        def gaps(lo, hi, c):
            # Nearest gap: clamp the station coordinate into [lo, hi];
            # farthest gap: to the farther of the two edges.
            near = np.maximum(np.maximum(lo[:, None] - c, 0.0), c - hi[:, None])
            far = np.maximum(np.abs(lo[:, None] - c), np.abs(hi[:, None] - c))
            return near, far

        def distance(gx, gy):
            sq = np.square(gx)[:, None, :] + np.square(gy)[None, :, :]
            return np.sqrt(sq).reshape(res * res, -1)  # (cells, stations)

        near_x, far_x = gaps(x1, x2, self._cx)
        near_y, far_y = gaps(y1, y2, self._cy)
        d_min = distance(near_x, near_y)
        d_max = distance(far_x, far_y)
        scale = max(
            abs(b.x1), abs(b.x2), abs(b.y1), abs(b.y2),
            float(np.abs(self._cx).max()), float(np.abs(self._cy).max()), 1.0,
        )
        eps = _PRUNE_EPS * scale
        covering = d_min <= self._radius[None, :] + eps
        nearest_bound = d_max.min(axis=1, keepdims=True)
        nearest = d_min <= nearest_bound + eps
        # Dominance: a station k that covers the whole cell beats every
        # station j whose nearest approach to the cell is farther than
        # k's farthest corner — at each point of the cell k covers and
        # is strictly closer, so j is neither the nearest covering
        # station nor the uncovered fallback.  ``dominating`` is the
        # tightest such d_max(c, k) per cell (inf when no station covers
        # the whole cell); the true winner always survives, and so do
        # all stations it could tie with.
        whole = d_max + eps < self._radius[None, :]
        dominating = np.where(whole, d_max, np.inf).min(axis=1, keepdims=True)
        candidate = (covering | nearest) & (d_min <= dominating + eps)
        counts = candidate.sum(axis=1)
        # Row-major nonzero lists each cell's candidates in ascending
        # list order; a per-cell offset turns them into table columns.
        cells, slots = np.nonzero(candidate)
        column = np.arange(cells.size) - (np.cumsum(counts) - counts)[cells]
        table = np.full((res * res, int(counts.max())), -1, dtype=np.int64)
        table[cells, column] = slots
        return table, counts

    @property
    def mean_candidates(self) -> float:
        """Average candidate-set size per raster cell (diagnostics)."""
        return float(self._n_candidates.mean())

    def assign(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Station *slot* (index into the station list) per position."""
        n = x.size
        if n == 0:
            return np.empty(0, dtype=np.int64)
        b = self.bounds
        inside = (x >= b.x1) & (x <= b.x2) & (y >= b.y1) & (y <= b.y2)
        slots = np.empty(n, dtype=np.int64)
        if inside.all():
            slots[:] = self._assign_raster(x, y)
        else:
            idx_in = np.flatnonzero(inside)
            idx_out = np.flatnonzero(~inside)
            slots[idx_in] = self._assign_raster(x[idx_in], y[idx_in])
            slots[idx_out] = self._assign_exhaustive(x[idx_out], y[idx_out])
        return slots

    def _resolve(self, x: np.ndarray, y: np.ndarray, cand: np.ndarray) -> np.ndarray:
        """Exact winner among per-row candidate slot lists (-1 padded)."""
        valid = cand >= 0
        safe = np.where(valid, cand, 0)
        # BaseStation.distance_to, element-wise (same rounding).
        dx = x[:, None] - self._cx[safe]
        dy = y[:, None] - self._cy[safe]
        d = np.where(valid, np.sqrt(dx * dx + dy * dy), np.inf)
        covers = valid & (d <= self._radius[safe])
        d_cover = np.where(covers, d, np.inf)
        has_cover = covers.any(axis=1)
        pick = np.where(
            has_cover, np.argmin(d_cover, axis=1), np.argmin(d, axis=1)
        )
        return cand[np.arange(cand.shape[0]), pick]

    def _assign_raster(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        b = self.bounds
        ix = ((x - b.x1) / self._cell_w).astype(np.int64)
        iy = ((y - b.y1) / self._cell_h).astype(np.int64)
        np.clip(ix, 0, self.resolution - 1, out=ix)
        np.clip(iy, 0, self.resolution - 1, out=iy)
        cells = ix * self.resolution + iy
        # Single-candidate cells need no distance computation at all:
        # the lone candidate wins whether or not it covers the point
        # (nearest-covering and nearest-overall coincide).  Only the
        # contested remainder pays the gather + hypot.
        single = self._n_candidates[cells] == 1
        if single.all():
            return self._candidates[cells, 0]
        slots = np.empty(x.size, dtype=np.int64)
        idx_single = np.flatnonzero(single)
        idx_multi = np.flatnonzero(~single)
        slots[idx_single] = self._candidates[cells[idx_single], 0]
        slots[idx_multi] = self._resolve(
            x[idx_multi], y[idx_multi], self._candidates[cells[idx_multi]]
        )
        return slots

    def _assign_exhaustive(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        cand = np.broadcast_to(
            np.arange(len(self.stations), dtype=np.int64), (x.size, len(self.stations))
        )
        return self._resolve(x, y, cand)


class _ThresholdRaster:
    """A station subset rasterized for batched Δ lookup.

    The raster lines are exactly the region-rect edges, so "is the point
    inside this rect?" (half-open, like :meth:`Rect.contains_xy`)
    coincides exactly with "does the point's raster cell lie in the
    rect's cell range?" — no alignment assumptions about the plan grid
    are needed, and stale subsets from older plans (different
    resolution) rasterize just as exactly.  Overlapping regions are
    painted in reverse subset order so the lowest region index wins,
    matching the ``_SubsetIndex`` bucket-scan order.
    """

    def __init__(self, regions: tuple[SheddingRegion, ...]) -> None:
        self._regions = regions
        xs = sorted({e for r in regions for e in (r.rect.x1, r.rect.x2)})
        ys = sorted({e for r in regions for e in (r.rect.y1, r.rect.y2)})
        self._xs = np.array(xs, dtype=np.float64)
        self._ys = np.array(ys, dtype=np.float64)
        # Owner grid: index (into the subset tuple) of the region each
        # raster cell belongs to, -1 outside every region.  Painted in
        # reverse order so the lowest region index wins; the threshold
        # grid then derives from it, which is what lets ``repaint``
        # update only the cells a changed region owns.
        owner = np.full((len(xs) - 1, len(ys) - 1), -1, dtype=np.int64)
        for index in range(len(regions) - 1, -1, -1):
            i1, i2, j1, j2 = self._cell_span(regions[index].rect)
            owner[i1:i2, j1:j2] = index
        self._owner = owner
        grid = np.full(owner.shape, np.nan, dtype=np.float64)
        inside = owner >= 0
        deltas = np.array([r.delta for r in regions], dtype=np.float64)
        grid[inside] = deltas[owner[inside]]
        self._grid = grid

    def _cell_span(self, rect) -> tuple[int, int, int, int]:
        return (
            int(np.searchsorted(self._xs, rect.x1)),
            int(np.searchsorted(self._xs, rect.x2)),
            int(np.searchsorted(self._ys, rect.y1)),
            int(np.searchsorted(self._ys, rect.y2)),
        )

    def repaint(self, regions: tuple[SheddingRegion, ...]) -> bool:
        """Update in place for a same-geometry subset; False otherwise.

        When ``regions`` carries exactly the rectangles this raster was
        built from (the delta-install steady state), only the cells
        owned by regions whose Δ changed are rewritten — the raster
        lines, owner grid, and unchanged cells stay put, and the result
        is bit-identical to a from-scratch rasterization.
        """
        old = self._regions
        if len(regions) != len(old) or any(
            new.rect != prev.rect for new, prev in zip(regions, old)
        ):
            return False
        for index, (new, prev) in enumerate(zip(regions, old)):
            if new.delta == prev.delta:
                continue
            i1, i2, j1, j2 = self._cell_span(new.rect)
            block = self._grid[i1:i2, j1:j2]
            block[self._owner[i1:i2, j1:j2] == index] = new.delta
        self._regions = regions
        return True

    def thresholds_at(
        self, x: np.ndarray, y: np.ndarray, default: float
    ) -> np.ndarray:
        ix = np.searchsorted(self._xs, x, side="right") - 1
        iy = np.searchsorted(self._ys, y, side="right") - 1
        inside = (
            (ix >= 0)
            & (ix < self._grid.shape[0])
            & (iy >= 0)
            & (iy < self._grid.shape[1])
        )
        out = np.full(x.shape, default, dtype=np.float64)
        if inside.any():
            values = self._grid[ix[inside], iy[inside]]
            out[inside] = np.where(np.isnan(values), default, values)
        return out


class ObjectNodeEngine:
    """The reference node-side path: one :class:`MobileNode` per node.

    Identical to the historical inline loop in ``LiraSystem.tick``, plus
    a monotonic :attr:`total_handoffs` counter maintained alongside it
    so stats snapshots no longer need the O(N) per-node reduction.
    """

    def __init__(self, n_nodes: int, network: BaseStationNetwork) -> None:
        self.n_nodes = n_nodes
        self.network = network
        self.nodes = [MobileNode(node_id=i) for i in range(n_nodes)]
        self.total_handoffs = 0

    def compute_thresholds(
        self,
        positions: np.ndarray,
        active: np.ndarray | None,
        default: float,
    ) -> np.ndarray:
        """Per-node Δ for one tick; inactive nodes get ``inf``."""
        thresholds = np.empty(self.n_nodes, dtype=np.float64)
        for i, node in enumerate(self.nodes):
            if active is not None and not active[i]:
                # Departed node: samples nothing, sends nothing.
                thresholds[i] = np.inf
                continue
            x, y = float(positions[i, 0]), float(positions[i, 1])
            previous_station = node.station_id
            node.observe_position(x, y, self.network)
            if previous_station is not None and node.station_id != previous_station:
                self.total_handoffs += 1
            thresholds[i] = node.current_threshold(x, y, default=default)
        return thresholds

    def stored_region_counts(self) -> np.ndarray:
        """How many shedding regions each node currently stores."""
        return np.array(
            [node.stored_region_count for node in self.nodes], dtype=np.int64
        )

    def handoff_counts(self) -> np.ndarray:
        """Per-node hand-off counters (parity introspection)."""
        return np.array([node.handoffs for node in self.nodes], dtype=np.int64)

    def install_counts(self) -> np.ndarray:
        """Per-node subset-install counters (parity introspection)."""
        return np.array(
            [node.subset_installs for node in self.nodes], dtype=np.int64
        )

    def station_slots(self) -> np.ndarray:
        """Current station id per node (-1 before first attachment)."""
        return np.array(
            [
                -1 if node.station_id is None else node.station_id
                for node in self.nodes
            ],
            dtype=np.int64,
        )


class VectorNodeEngine:
    """Struct-of-arrays node-side engine, bit-identical to the object path.

    Node state lives in flat arrays: the slot of the serving station
    (-1 before first attachment), the installed region-subset version
    (-1 when the node stores no regions — never attached, or handed off
    to a station whose broadcast was lost), and per-node hand-off /
    install counters.  Per-station threshold rasters are cached by the
    *identity of the region tuple* they rasterize, so re-broadcasts of
    an unchanged plan (which reuse the network's cached per-station
    member tuples) rebuild nothing.
    """

    def __init__(
        self,
        n_nodes: int,
        network: SubsetProvider,
        bounds: Rect,
        assigner_resolution: int | None = None,
        assigner: StationAssigner | None = None,
    ) -> None:
        self.n_nodes = n_nodes
        self.network = network
        # ``assigner`` lets deployments with several engines over the
        # same station layout (one per shard) share a single candidate
        # raster instead of precomputing K identical copies; ``network``
        # then only needs to answer ``subset_or_none``.
        self.assigner = assigner if assigner is not None else StationAssigner(
            network.stations, bounds, resolution=assigner_resolution
        )
        self._station_slot = np.full(n_nodes, -1, dtype=np.int64)
        self._installed_version = np.full(n_nodes, -1, dtype=np.int64)
        self._handoffs = np.zeros(n_nodes, dtype=np.int64)
        self._installs = np.zeros(n_nodes, dtype=np.int64)
        self.total_handoffs = 0
        #: slot -> (regions-tuple id, regions ref, raster | None) cache.
        self._rasters: dict[int, tuple[int, tuple, _ThresholdRaster | None]] = {}

    # ------------------------------------------------------------------
    # Per-tick station/subset state from the network
    # ------------------------------------------------------------------

    def _station_state(self) -> tuple[np.ndarray, list]:
        """Current subset version per station slot (-1 = none) + subsets."""
        versions = np.full(len(self.assigner.stations), -1, dtype=np.int64)
        subsets: list = [None] * len(self.assigner.stations)
        for slot, station in enumerate(self.assigner.stations):
            subset = self.network.subset_or_none(station.station_id)
            if subset is not None:
                versions[slot] = subset.version
                subsets[slot] = subset
        return versions, subsets

    def _raster_for(self, slot: int, subset) -> _ThresholdRaster | None:
        regions = subset.regions
        cached = self._rasters.get(slot)
        if cached is not None and cached[0] == id(regions):
            return cached[2]
        if (
            cached is not None
            and cached[2] is not None
            and regions
            and cached[2].repaint(regions)
        ):
            # Same geometry, new thresholds (delta install): the cached
            # raster updated only the changed regions' cells in place.
            self._rasters[slot] = (id(regions), regions, cached[2])
            return cached[2]
        raster = _ThresholdRaster(regions) if regions else None
        # Hold a reference to the tuple so its id stays valid.
        self._rasters[slot] = (id(regions), regions, raster)
        return raster

    # ------------------------------------------------------------------
    # The per-tick batch
    # ------------------------------------------------------------------

    def compute_thresholds(
        self,
        positions: np.ndarray,
        active: np.ndarray | None,
        default: float,
    ) -> np.ndarray:
        """Per-node Δ for one tick; inactive nodes get ``inf``.

        The common case (no churn: every node active) updates the state
        arrays in place with boolean masks; only the churn path pays the
        active-subset gathers and scatters.
        """
        full = active is None
        act = None if full else np.flatnonzero(active)
        if not full:
            thresholds = np.full(self.n_nodes, np.inf, dtype=np.float64)
            if act.size == 0:
                return thresholds
        if full:
            x = np.ascontiguousarray(positions[:, 0], dtype=np.float64)
            y = np.ascontiguousarray(positions[:, 1], dtype=np.float64)
        else:
            x = np.ascontiguousarray(positions[act, 0], dtype=np.float64)
            y = np.ascontiguousarray(positions[act, 1], dtype=np.float64)

        slots = self.assigner.assign(x, y)
        previous = self._station_slot if full else self._station_slot[act]
        changed = slots != previous
        handoff = changed & (previous >= 0)
        n_handoffs = int(np.count_nonzero(handoff))
        if n_handoffs:
            self.total_handoffs += n_handoffs
            if full:
                self._handoffs[handoff] += 1
            else:
                self._handoffs[act[handoff]] += 1
        if full:
            self._station_slot = slots.copy()
        else:
            self._station_slot[act] = slots

        versions, subsets = self._station_state()
        slot_version = versions[slots]
        installed = self._installed_version if full else self._installed_version[act]
        # Hand-off: adopt the new station's subset (or clear on a lost
        # broadcast).  Same station: re-install only when the broadcast
        # version advanced past the stored one.
        install = changed & (slot_version >= 0)
        install |= (~changed) & (slot_version >= 0) & (slot_version != installed)
        clear = changed & (slot_version < 0)
        if install.any():
            where = install if full else act[install]
            self._installs[where] += 1
            self._installed_version[where] = slot_version[install]
        if clear.any():
            self._installed_version[clear if full else act[clear]] = -1

        # Threshold gather: one raster lookup per station that currently
        # serves nodes with an installed subset; everyone else is Δ⊢.
        # Nodes are grouped by station with one stable argsort instead
        # of a fresh full-length mask per station.
        out = np.full(x.size, default, dtype=np.float64)
        stored = self._installed_version if full else self._installed_version[act]
        idx_have = np.flatnonzero(stored >= 0)
        if idx_have.size:
            groups = slots[idx_have]
            order = np.argsort(
                groups.astype(self.assigner.slot_dtype), kind="stable"
            )
            sorted_idx = idx_have[order]
            sorted_groups = groups[order]
            starts = np.concatenate(
                [[0], np.flatnonzero(np.diff(sorted_groups)) + 1, [order.size]]
            )
            for g in range(starts.size - 1):
                lo, hi = starts[g], starts[g + 1]
                slot = int(sorted_groups[lo])
                raster = self._raster_for(slot, subsets[slot])
                if raster is None:
                    continue  # empty subset: conservative default
                sel = sorted_idx[lo:hi]
                out[sel] = raster.thresholds_at(x[sel], y[sel], default)
        if full:
            thresholds = out
        else:
            thresholds[act] = out
        return thresholds

    # ------------------------------------------------------------------
    # Row surgery (cross-shard node handoff) and pool-tick state
    # ------------------------------------------------------------------

    #: The per-node state arrays, stored as ``_<name>``.
    _NODE_ARRAYS = ("station_slot", "installed_version", "handoffs", "installs")

    def extract_rows(self, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Remove the given row indices and return their state.

        Used when nodes migrate to a different shard's engine: the
        per-node station slot, installed version, and counters travel
        with the node so the destination engine sees exactly the state
        a single global engine would hold.  ``total_handoffs`` stays —
        it counts events observed while the rows lived here.
        """
        state = {}
        for name in self._NODE_ARRAYS:
            array = getattr(self, "_" + name)
            state[name] = array[rows].copy()
            setattr(self, "_" + name, np.delete(array, rows))
        self.n_nodes = int(self._station_slot.size)
        return state

    def insert_rows(self, at: np.ndarray, state: dict[str, np.ndarray]) -> None:
        """Insert rows (from :meth:`extract_rows`) before indices ``at``."""
        for name in self._NODE_ARRAYS:
            setattr(self, "_" + name, np.insert(getattr(self, "_" + name), at, state[name]))
        self.n_nodes = int(self._station_slot.size)

    def tick_state(self) -> dict[str, Any]:
        """The state a pool tick ships to a worker and back.

        The per-node arrays and the hand-off counter only: the raster
        cache stays behind (a worker's engine rebuilds what it needs).
        """
        state: dict[str, Any] = {name: getattr(self, "_" + name) for name in self._NODE_ARRAYS}
        state["total_handoffs"] = self.total_handoffs
        return state

    def load_tick_state(self, state: dict[str, Any]) -> None:
        """Adopt a :meth:`tick_state` (row count included)."""
        for name in self._NODE_ARRAYS:
            setattr(self, "_" + name, state[name])
        self.total_handoffs = int(state["total_handoffs"])
        self.n_nodes = int(self._station_slot.size)

    # ------------------------------------------------------------------
    # Introspection (parity with the object path)
    # ------------------------------------------------------------------

    def stored_region_counts(self) -> np.ndarray:
        """How many shedding regions each node currently stores."""
        versions, subsets = self._station_state()
        counts = np.zeros(self.n_nodes, dtype=np.int64)
        stored = self._installed_version >= 0
        for i in np.flatnonzero(stored):
            subset = subsets[self._station_slot[i]]
            counts[i] = len(subset.regions) if subset is not None else 0
        return counts

    def handoff_counts(self) -> np.ndarray:
        """Per-node hand-off counters (parity introspection)."""
        return self._handoffs.copy()

    def install_counts(self) -> np.ndarray:
        """Per-node subset-install counters (parity introspection)."""
        return self._installs.copy()

    def station_slots(self) -> np.ndarray:
        """Current station id per node (-1 before first attachment)."""
        ids = np.full(self.n_nodes, -1, dtype=np.int64)
        attached = self._station_slot >= 0
        ids[attached] = self.assigner.station_ids[self._station_slot[attached]]
        return ids
