"""Topologies, mixing weights, consensus contraction, clipping, attacks."""

import numpy as np
import pytest

from qknet import dnet


def test_topology_normalizes_and_validates_edges():
    top = dnet.Topology(3, frozenset({(1, 0), (2, 1)}))
    assert (0, 1) in top.edges and (1, 2) in top.edges
    with pytest.raises(dnet.NetError):
        dnet.Topology(3, frozenset({(0, 0), (0, 1)}))
    with pytest.raises(dnet.NetError):
        dnet.Topology(3, frozenset({(0, 3)}))
    with pytest.raises(dnet.NetError):
        dnet.Topology(0, frozenset())


def test_topology_requires_connectivity():
    with pytest.raises(dnet.NetError):
        dnet.Topology(4, frozenset({(0, 1), (2, 3)}))
    dnet.Topology(4, frozenset({(0, 1), (1, 2), (2, 3)}))


def test_neighbors_are_sorted_and_degrees_consistent():
    top = dnet.ring(5)
    assert top.neighbors(0) == [1, 4]
    assert top.neighbors(3) == [2, 4]
    assert all(top.degree(i) == 2 for i in range(5))


def test_ring_and_complete_shapes():
    assert len(dnet.ring(4).edges) == 4
    assert len(dnet.complete(5).edges) == 10
    assert dnet.complete(1).n_nodes == 1
    with pytest.raises(dnet.NetError):
        dnet.ring(2)
    with pytest.raises(dnet.NetError):
        dnet.complete(0)


def test_metropolis_weights_on_ring_of_four():
    w = dnet.metropolis_weights(dnet.ring(4))
    expected = np.array(
        [
            [1 / 3, 1 / 3, 0.0, 1 / 3],
            [1 / 3, 1 / 3, 1 / 3, 0.0],
            [0.0, 1 / 3, 1 / 3, 1 / 3],
            [1 / 3, 0.0, 1 / 3, 1 / 3],
        ]
    )
    assert np.max(np.abs(w - expected)) < 1e-15
    dnet.check_weight_matrix(w)


def test_metropolis_weights_are_doubly_stochastic_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        # random spanning tree plus extra edges keeps the graph connected
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        for _ in range(n):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        w = dnet.metropolis_weights(dnet.Topology(n, frozenset(edges)))
        dnet.check_weight_matrix(w)
        assert np.max(np.abs(w - w.T)) < 1e-15


def test_check_weight_matrix_flags_violations():
    with pytest.raises(dnet.NetError):
        dnet.check_weight_matrix(np.array([[0.5, 0.5]]))
    with pytest.raises(dnet.NetError):
        dnet.check_weight_matrix(np.array([[1.2, -0.2], [-0.2, 1.2]]))
    with pytest.raises(dnet.NetError):
        dnet.check_weight_matrix(np.array([[0.7, 0.2], [0.2, 0.7]]))
    # permutation matrix mixes nothing: deflated radius 1
    with pytest.raises(dnet.NetError):
        dnet.check_weight_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_spectral_gap_known_values():
    assert abs(dnet.spectral_gap(dnet.metropolis_weights(dnet.ring(4))) - 1 / 3) < 1e-12
    w5 = dnet.metropolis_weights(dnet.complete(5))
    assert dnet.spectral_gap(w5) < 1e-12
    assert abs(dnet.spectral_gap(np.eye(3)) - 1.0) < 1e-12


def test_consensus_iteration_contracts_at_the_spectral_gap():
    rng = np.random.default_rng(7)
    for top in (dnet.ring(4), dnet.ring(6), dnet.complete(5)):
        w = dnet.metropolis_weights(top)
        rate = dnet.spectral_gap(w)
        x = rng.normal(size=(top.n_nodes, 3))
        mean0 = x.mean(axis=0)
        for _ in range(30):
            x = w @ x
        assert np.max(np.abs(x.mean(axis=0) - mean0)) < 1e-12
        spread = np.max(np.linalg.norm(x - x.mean(axis=0), axis=1))
        assert spread <= (rate + 1e-9) ** 30 * 10.0


def test_aggregate_plain_is_neighborhood_average():
    w = dnet.metropolis_weights(dnet.ring(4))
    # node 2 is not a neighbour of node 0, so its row is never read
    msgs = np.array([[1.0, 0.0], [0.0, 3.0], [np.nan, np.nan], [2.0, 0.0]])
    out = dnet.aggregate_plain(msgs, w[0])
    assert np.allclose(out, [1.0, 1.0])


def test_aggregate_plain_rejects_weights_not_summing_to_one():
    with pytest.raises(dnet.NetError):
        dnet.aggregate_plain(np.zeros((4, 2)), np.array([0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(dnet.NetError):
        dnet.aggregate_plain(np.zeros((4, 2)), np.zeros(4))


def test_clip_preserves_direction_and_caps_norm():
    v = np.array([3.0, 4.0])
    out = dnet.clip(v, 2.5)
    assert abs(np.linalg.norm(out) - 2.5) < 1e-12
    assert np.allclose(out / np.linalg.norm(out), v / 5.0)
    small = np.array([0.1, 0.1])
    assert np.array_equal(dnet.clip(small, 1.0), small)
    with pytest.raises(dnet.NetError):
        dnet.clip(v, 0.0)


def test_self_centered_clipping_bounds_the_pull():
    rng = np.random.default_rng(11)
    w = dnet.metropolis_weights(dnet.ring(4))
    tau = 0.5
    for _ in range(20):
        self_theta = rng.normal(size=6)
        msgs = rng.normal(scale=5.0, size=(4, 6))
        msgs[0] = self_theta
        out = dnet.aggregate_robust(self_theta, msgs, w[0], tau)
        assert np.linalg.norm(out - self_theta) <= tau + 1e-12


def test_clipping_is_inert_for_nearby_messages():
    w = dnet.metropolis_weights(dnet.ring(4))
    self_theta = np.array([1.0, 1.0])
    msgs = np.stack([self_theta, self_theta + np.array([0.01, 0.0]),
                     np.full(2, 50.0), self_theta - np.array([0.0, 0.01])])
    robust = dnet.aggregate_robust(self_theta, msgs, w[0], tau=1.0)
    plain = dnet.aggregate_plain(msgs, w[0])
    assert np.max(np.abs(robust - plain)) < 1e-12


def test_literal_clipping_caps_raw_vectors():
    w = dnet.metropolis_weights(dnet.ring(4))
    big = np.array([10.0, 0.0])
    msgs = np.tile(big, (4, 1))
    out = dnet.aggregate_robust(big, msgs, w[0], tau=0.5, reference=dnet.LITERAL)
    assert abs(np.linalg.norm(out) - 0.5) < 1e-12
    with pytest.raises(dnet.NetError):
        dnet.aggregate_robust(big, msgs, w[0], tau=0.5, reference="median")


def test_gaussian_attack_moment_matching():
    n = 4000
    # identical messages (a network at consensus) must not collapse the draw
    # into an echo of the common vector
    same = [np.array([0.3, -0.7])] * 3
    echo = np.stack([
        dnet.attack_gaussian(same, np.random.default_rng(s)) for s in range(n)
    ])
    assert not np.any(np.all(echo == same[0], axis=1))
    # centered on the per-coordinate mean, with the fixed spread on every
    # coordinate; tolerances are 4 standard errors of n draws
    sigma = dnet.GAUSSIAN_ATTACK_STD
    se_mean, se_std = sigma / np.sqrt(n), sigma / np.sqrt(2 * n)
    msgs = [np.array([1.0, 0.0]), np.array([3.0, 0.0])]
    draws = np.stack([
        dnet.attack_gaussian(msgs, np.random.default_rng(s)) for s in range(n)
    ])
    for d, center in ((echo, same[0]), (draws, [2.0, 0.0])):
        assert np.all(np.abs(d.mean(axis=0) - center) < 4 * se_mean)
        assert np.all(np.abs(d.std(axis=0) - sigma) < 4 * se_std)
    with pytest.raises(dnet.NetError):
        dnet.attack_gaussian([], np.random.default_rng(13))


def test_gaussian_attack_is_rng_deterministic():
    msgs = [np.array([1.0, 2.0]), np.array([2.0, 1.0])]
    a = dnet.attack_gaussian(msgs, np.random.default_rng(5))
    b = dnet.attack_gaussian(msgs, np.random.default_rng(5))
    assert np.array_equal(a, b)


def test_signflip_attack_negates_the_mean():
    msgs = [np.array([1.0, -2.0]), np.array([3.0, 0.0])]
    assert np.array_equal(dnet.attack_signflip(msgs), [-2.0, 1.0])
    with pytest.raises(dnet.NetError):
        dnet.attack_signflip([])


def test_consensus_distance_max_deviation():
    thetas = [np.array([0.0, 0.0]), np.array([2.0, 0.0]), np.array([1.0, 3.0])]
    mean = np.array([1.0, 1.0])
    expected = max(np.linalg.norm(t - mean) for t in thetas)
    assert abs(dnet.consensus_distance(thetas) - expected) < 1e-12
    assert dnet.consensus_distance([np.ones(3), np.ones(3)]) == 0.0
    with pytest.raises(dnet.NetError):
        dnet.consensus_distance([np.ones(3)])
