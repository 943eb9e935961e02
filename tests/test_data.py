"""Checkerboard generation, CSV round trips, partitioning, and splits."""

import numpy as np
import pytest

from qknet import data
from qknet.data import DataError, LabeledDataset


def test_dataset_validation():
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((3, 2)), np.array([1, -1]))
    with pytest.raises(DataError):
        LabeledDataset(np.zeros((2, 2)), np.array([1, 2]))
    with pytest.raises(DataError):
        LabeledDataset(np.zeros(4), np.array([1, -1, 1, -1]))


def test_dataset_subset():
    ds = LabeledDataset(np.arange(8.0).reshape(4, 2), np.array([1, -1, 1, -1]))
    sub = ds.subset([2, 0])
    assert np.array_equal(sub.x, [[4.0, 5.0], [0.0, 1.0]])
    assert np.array_equal(sub.y, [1, 1])
    assert len(sub) == 2
    assert ds.dim == 2


def test_checkerboard_spec_validation():
    with pytest.raises(DataError):
        data.gen_checkerboard(points_per_cell=0)
    # a spread far beyond the unit square would redraw almost every point
    for sigma in (0.0, 1.0 + 1e-9, 30.0, float("inf"), float("nan")):
        with pytest.raises(DataError, match=r"sigma must lie in \(0, 1.0\]"):
            data.gen_checkerboard(sigma=sigma)
    with pytest.raises(DataError, match="seed"):
        data.gen_checkerboard(seed=-3)
    ds = data.gen_checkerboard(points_per_cell=2, sigma=data.MAX_SIGMA)
    assert len(ds) == 32 and np.all((ds.x >= 0.0) & (ds.x <= 1.0))


def test_checkerboard_too_large_to_allocate_names_points_per_cell():
    # 16 x 10**15 points of 24 bytes: past any address space, so the first
    # allocation fails without touching memory
    with pytest.raises(DataError, match=r"points_per_cell = 1000000000000000 "
                       r"is too large: .* 384000000000000000 bytes"):
        data.gen_checkerboard(points_per_cell=10**15)


def test_cell_geometry():
    assert np.allclose(data.cell_center(0, 0), [0.125, 0.125])
    assert np.allclose(data.cell_center(3, 2), [0.875, 0.625])
    for col in range(4):
        for row in range(4):
            assert tuple(data.cell_of(data.cell_center(col, row))) == (col, row)


def test_cell_label_parity():
    assert data.cell_label(0, 0) == 1
    assert data.cell_label(1, 0) == -1
    assert data.cell_label(0, 1) == -1
    assert data.cell_label(1, 1) == 1
    for col in range(4):
        for row in range(4):
            assert data.cell_label(col, row) == (1 if (col + row) % 2 == 0 else -1)


def test_cell_of_boundary_points():
    assert tuple(data.cell_of([1.0, 1.0])) == (3, 3)
    assert tuple(data.cell_of([0.0, 0.0])) == (0, 0)
    assert tuple(data.cell_of([0.25, 0.5])) == (1, 2)


def test_checkerboard_generation_counts_and_range():
    ds = data.gen_checkerboard(points_per_cell=10, sigma=0.04, seed=0)
    assert len(ds) == 160
    assert np.all(ds.x >= 0.0) and np.all(ds.x <= 1.0)
    assert int(np.sum(ds.y == 1)) == 80
    assert int(np.sum(ds.y == -1)) == 80


def test_checkerboard_points_cluster_at_their_cell_centers():
    ds = data.gen_checkerboard(points_per_cell=10, sigma=0.01, seed=1)
    # at sigma = 0.01 essentially every point stays inside its own cell
    for xi, yi in zip(ds.x, ds.y):
        col, row = data.cell_of(xi)
        assert data.cell_label(col, row) == yi


def test_checkerboard_is_seed_deterministic():
    a = data.gen_checkerboard(seed=5)
    b = data.gen_checkerboard(seed=5)
    c = data.gen_checkerboard(seed=6)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_csv_round_trip_is_exact(tmp_path):
    ds = data.gen_checkerboard(points_per_cell=2, seed=3)
    path = tmp_path / "points.csv"
    data.save_csv(ds, path)
    back = data.load_csv(path)
    assert np.array_equal(ds.x, back.x)
    assert np.array_equal(ds.y, back.y)


def test_csv_without_header_loads_too(tmp_path):
    ds = LabeledDataset(np.array([[0.5, 0.5], [0.1, 0.9]]), np.array([1, -1]))
    path = tmp_path / "bare.csv"
    path.write_text("0.5,0.5,1\n0.1,0.9,-1\n")
    back = data.load_csv(path)
    assert np.array_equal(ds.x, back.x)


def test_csv_load_skips_a_byte_order_mark(tmp_path):
    # a BOM before the header once made line 1 a malformed feature value
    path = tmp_path / "bom.csv"
    path.write_text("\ufeffx1,x2,label\n0.1,0.2,1\n", encoding="utf-8")
    ds = data.load_csv(path)
    assert np.array_equal(ds.x, [[0.1, 0.2]])
    assert np.array_equal(ds.y, [1])


def test_csv_load_accepts_plus_prefixed_labels(tmp_path):
    path = tmp_path / "plus.csv"
    path.write_text("x1,x2,label\n0.1,0.2,+1\n0.3,0.4,-1\n")
    ds = data.load_csv(path)
    assert np.array_equal(ds.y, [1, -1])


def test_csv_load_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2,label\n0.1,0.2\n")
    with pytest.raises(DataError, match="line 2"):
        data.load_csv(path)
    path.write_text("0.1,abc,1\n")
    with pytest.raises(DataError, match="line 1"):
        data.load_csv(path)
    path.write_text("0.1,0.2,7\n")
    with pytest.raises(DataError, match="label"):
        data.load_csv(path)
    for value in ("nan", "inf", "-inf"):
        path.write_text(f"0.1,0.2,1\n0.3,{value},-1\n")
        with pytest.raises(DataError, match="line 2: feature values must be finite"):
            data.load_csv(path)
    path.write_text("\n\n")
    with pytest.raises(DataError, match="empty"):
        data.load_csv(path)


def test_save_csv_rejects_wide_features(tmp_path):
    ds = LabeledDataset(np.zeros((2, 3)), np.array([1, -1]))
    with pytest.raises(DataError):
        data.save_csv(ds, tmp_path / "wide.csv")


def test_partition_plan_validation():
    ds = data.gen_checkerboard(points_per_cell=1)
    with pytest.raises(DataError, match="striped"):
        data.partition(ds, strategy="striped")
    with pytest.raises(DataError, match="n_nodes"):
        data.partition(ds, n_nodes=0)


def partition_is_disjoint_cover(parts, n):
    merged = np.sort(np.concatenate(parts))
    return np.array_equal(merged, np.arange(n))


def test_region_partition_groups_columns():
    ds = data.gen_checkerboard(points_per_cell=10, sigma=0.01, seed=0)
    parts = data.partition(ds, strategy="region", n_nodes=4)
    assert partition_is_disjoint_cover(parts, 160)
    for k, ix in enumerate(parts):
        assert len(ix) == 40
        cols = [data.cell_of(p)[0] for p in ds.x[ix]]
        assert set(cols) == {k}
        labs = set(ds.y[ix])
        assert labs == {1, -1}


def test_region_partition_covers_points_outside_the_unit_square():
    ds = data.gen_checkerboard(points_per_cell=3, seed=0)
    x = ds.x.copy()
    x[0], x[1] = (-0.5, 0.1), (1.7, -3.0)
    outside = LabeledDataset(x, ds.y)
    assert tuple(data.cell_of(x[0])) == (0, 0) and tuple(data.cell_of(x[1])) == (3, 0)
    parts = data.partition(outside, strategy="region", n_nodes=4)
    assert partition_is_disjoint_cover(parts, 48)


def test_region_partition_requires_divisor_of_grid():
    ds = data.gen_checkerboard(points_per_cell=2, seed=0)
    with pytest.raises(DataError):
        data.partition(ds, strategy="region", n_nodes=3)
    for n in (1, 2, 4, 8, 16):
        parts = data.partition(ds, strategy="region", n_nodes=n)
        assert partition_is_disjoint_cover(parts, len(ds))


def test_random_partition_balances_sizes():
    ds = data.gen_checkerboard(points_per_cell=10, seed=2)
    parts = data.partition(ds, strategy="random", n_nodes=3, seed=9)
    assert partition_is_disjoint_cover(parts, 160)
    sizes = sorted(len(p) for p in parts)
    assert sizes[-1] - sizes[0] <= 1
    for ix in parts:
        assert set(ds.y[ix]) == {1, -1}


def test_random_partition_is_seed_deterministic():
    ds = data.gen_checkerboard(points_per_cell=4, seed=2)
    a = data.partition(ds, strategy="random", n_nodes=4, seed=1)
    b = data.partition(ds, strategy="random", n_nodes=4, seed=1)
    c = data.partition(ds, strategy="random", n_nodes=4, seed=2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_partition_rebalances_single_label_nodes():
    # ten points in one column, one lone -1; region split by column would
    # give node 1 nothing, so use a 2-node region layout across two columns
    x = np.vstack([
        np.full((5, 2), 0.1),                       # column 0
        np.full((5, 2), 0.9),                       # column 3
    ])
    x = x + np.arange(10)[:, None] * 1e-4
    y = np.array([1, 1, 1, 1, -1, 1, 1, 1, 1, -1])
    ds = LabeledDataset(x, y)
    parts = data.partition(ds, strategy="random", n_nodes=2, seed=0)
    for ix in parts:
        assert set(ds.y[ix]) == {1, -1}


def test_partition_fails_when_one_label_is_unique():
    x = np.random.default_rng(0).uniform(size=(6, 2))
    y = np.array([1, 1, 1, 1, 1, -1])
    ds = LabeledDataset(x, y)
    with pytest.raises(DataError):
        data.partition(ds, strategy="random", n_nodes=2, seed=0)


def test_partition_rejects_more_nodes_than_points():
    ds = LabeledDataset(np.zeros((2, 2)), np.array([1, -1]))
    with pytest.raises(DataError):
        data.partition(ds, strategy="random", n_nodes=3)


def test_train_test_split_is_stratified():
    ds = data.gen_checkerboard(points_per_cell=10, seed=0)
    train, test = data.train_test_split(ds, test_fraction=0.25, seed=4)
    assert partition_is_disjoint_cover([train, test], 160)
    assert len(test) == 40
    assert int(np.sum(ds.y[test] == 1)) == 20
    assert int(np.sum(ds.y[train] == 1)) == 60


def test_train_test_split_determinism_and_validation():
    ds = data.gen_checkerboard(points_per_cell=4, seed=0)
    a = data.train_test_split(ds, seed=7)
    b = data.train_test_split(ds, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(DataError):
        data.train_test_split(ds, test_fraction=0.0)
    with pytest.raises(DataError):
        data.train_test_split(ds, test_fraction=1.0)


def test_train_test_split_rounds_halves_up():
    for per_label, want in ((2, 1), (6, 2), (10, 3)):
        ds = LabeledDataset(np.zeros((2 * per_label, 2)),
                            np.repeat([1, -1], per_label))
        train, test = data.train_test_split(ds, test_fraction=0.25)
        assert int(np.sum(ds.y[test] == 1)) == int(np.sum(ds.y[test] == -1)) == want
        assert len(train) == 2 * (per_label - want)
    # a label with no points contributes nothing to either side
    one_label = LabeledDataset(np.zeros((6, 2)), np.ones(6, dtype=int))
    train, test = data.train_test_split(one_label, test_fraction=0.25)
    assert (len(train), len(test)) == (4, 2)


def test_train_test_split_rejects_empty_side():
    ds = LabeledDataset(np.zeros((2, 2)), np.array([1, -1]))
    with pytest.raises(DataError):
        data.train_test_split(ds, test_fraction=0.1)
