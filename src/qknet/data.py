"""Checkerboard dataset generation, CSV persistence, partitioning, splits.

The synthetic task is a 4x4 checkerboard over the unit square: each of the 16
cells (side 0.25) holds an isotropic Gaussian cluster at its center, labeled
by cell parity, +1 on the (0,0) cell. Points are truncated to [0,1]^2 by
resampling so the boundary carries no atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GRID = 4
CELL = 0.25
STRATEGIES = ("region", "random")
MAX_SIGMA = GRID * CELL
"""Largest cluster spread: four cell widths, the side of the unit square."""


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix (n, d) with labels in {-1, +1}."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=int)
        if x.ndim != 2 or len(x) != len(y) or y.ndim != 1:
            raise DataError("features must be (n, d) with matching (n,) labels")
        if len(y) and not np.all(np.isin(y, (-1, 1))):
            raise DataError("labels must be -1 or +1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return len(self.y)

    @property
    def dim(self):
        return self.x.shape[1]

    def subset(self, idx) -> "LabeledDataset":
        idx = np.asarray(idx, dtype=int)
        return LabeledDataset(self.x[idx], self.y[idx])


def cell_center(col: int, row: int):
    return np.array([(col + 0.5) * CELL, (row + 0.5) * CELL])


def cell_label(col: int, row: int) -> int:
    return 1 if (row + col) % 2 == 0 else -1


def cell_of(points):
    """The (col, row) cell of one point, or the (n, 2) cells of n points; a
    coordinate outside [0, 1) falls in the nearest cell."""
    cells = np.clip(np.asarray(points)[..., :2] / CELL, 0, GRID - 1).astype(int)
    return tuple(cells.tolist()) if cells.ndim == 1 else cells


def gen_checkerboard(points_per_cell: int = 10, sigma: float = 0.04,
                     seed: int = 0) -> LabeledDataset:
    """``points_per_cell`` points around each cell center, spread ``sigma``.

    A draw outside the unit square is redrawn, so ``sigma`` is bounded by
    MAX_SIGMA: the acceptance rate of a corner cell falls about as 1/sigma^2.
    """
    if points_per_cell < 1:
        raise DataError("points_per_cell must be positive")
    if not 0.0 < sigma <= MAX_SIGMA:
        raise DataError(f"sigma must lie in (0, {MAX_SIGMA}], got {sigma}")
    if seed < 0:
        raise DataError("seed must be non-negative")
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    try:
        for col in range(GRID):
            for row in range(GRID):
                center = cell_center(col, row)
                pts = np.empty((points_per_cell, 2))
                got = 0
                while got < points_per_cell:
                    cand = rng.normal(center, sigma, size=(points_per_cell, 2))
                    ok = cand[np.all((cand >= 0.0) & (cand <= 1.0), axis=1)]
                    take = min(len(ok), points_per_cell - got)
                    pts[got:got + take] = ok[:take]
                    got += take
                xs.append(pts)
                ys.append(np.full(points_per_cell, cell_label(col, row)))
        return LabeledDataset(np.concatenate(xs), np.concatenate(ys))
    except MemoryError:  # a point is two float coordinates and an int label
        size = GRID**2 * 24 * points_per_cell
        raise DataError(f"points_per_cell = {points_per_cell} is too large:"
                        f" its points take {size} bytes") from None


def save_csv(dataset: LabeledDataset, path) -> None:
    if dataset.dim != 2:
        raise DataError("CSV format is two features wide")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,x2,label\n")
        for xi, yi in zip(dataset.x, dataset.y):
            # repr of a Python float round-trips exactly
            fh.write(f"{float(xi[0])!r},{float(xi[1])!r},{yi:d}\n")


def load_csv(path) -> LabeledDataset:
    xs, ys = [], []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if lineno == 1 and line.lower().replace(" ", "") == "x1,x2,label":
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DataError(f"line {lineno}: expected 3 comma-separated fields")
            try:
                x1, x2 = float(parts[0]), float(parts[1])
            except ValueError:
                raise DataError(f"line {lineno}: malformed feature value") from None
            if not (math.isfinite(x1) and math.isfinite(x2)):
                raise DataError(f"line {lineno}: feature values must be finite")
            if parts[2].strip() not in ("1", "-1", "+1"):
                raise DataError(f"line {lineno}: label must be 1 or -1")
            xs.append((x1, x2))
            ys.append(int(parts[2]))
    if not xs:
        raise DataError("empty dataset file")
    return LabeledDataset(np.array(xs), np.array(ys))


def _rebalance(indices: list[np.ndarray], y: np.ndarray) -> list[np.ndarray]:
    """Swap points between nodes until every node holds both labels."""
    parts = [list(ix) for ix in indices]
    for k, part in enumerate(parts):
        for lab in (1, -1):
            if any(y[i] == lab for i in part):
                continue
            for j, donor in enumerate(parts):
                if j == k or sum(y[i] == lab for i in donor) < 2:
                    continue
                give = next(i for i in donor if y[i] == lab)
                take = next(i for i in part if y[i] == -lab)
                donor.remove(give)
                donor.append(take)
                part.remove(take)
                part.append(give)
                break
            else:
                raise DataError(f"cannot give node {k} both labels")
    return [np.array(sorted(p), dtype=int) for p in parts]


def partition(dataset: LabeledDataset, strategy: str = "region",
              n_nodes: int = 4, seed: int = 0) -> list[np.ndarray]:
    """Index lists per node: disjoint, covering, both labels present on each.

    ``strategy`` is one of STRATEGIES; ``seed`` drives the random one.
    """
    if strategy not in STRATEGIES:
        raise DataError(f"unknown partition strategy {strategy!r}")
    if n_nodes < 1:
        raise DataError("n_nodes must be positive")
    n = len(dataset)
    if n_nodes > n:
        raise DataError("more nodes than data points")
    if strategy == "region":
        if (GRID * GRID) % n_nodes != 0:
            raise DataError("region partition needs n_nodes dividing 16")
        per = (GRID * GRID) // n_nodes
        cells = cell_of(dataset.x)
        flat = cells[:, 0] * GRID + cells[:, 1]  # column-major cell index
        out = [np.where((flat >= k * per) & (flat < (k + 1) * per))[0]
               for k in range(n_nodes)]
    else:
        rng = np.random.default_rng(seed)
        order = rng.permutation(n)
        out = [np.sort(order[k::n_nodes]) for k in range(n_nodes)]
    if any(len(ix) == 0 for ix in out):
        raise DataError("a node received no data")
    return _rebalance(out, dataset.y)


def train_test_split(dataset: LabeledDataset, test_fraction: float = 0.25,
                     seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stratified index split; returns (train_idx, test_idx)."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train, test = [], []
    for lab in (1, -1):
        ix = np.where(dataset.y == lab)[0]
        if len(ix) == 0:
            continue
        ix = ix[rng.permutation(len(ix))]
        k = math.floor(test_fraction * len(ix) + 0.5)  # halves round up
        test.append(ix[:k])
        train.append(ix[k:])
    train = np.sort(np.concatenate(train))
    test = np.sort(np.concatenate(test)) if test else np.array([], dtype=int)
    if len(train) == 0 or len(test) == 0:
        raise DataError("split leaves an empty side")
    return train, test
