"""Topologies, mixing weights, consensus contraction, clipping, attacks."""

import numpy as np
import pytest

from qknet import dnet


def _adjacency(n, edges):
    adjacency = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adjacency[a, b] = adjacency[b, a] = True
    return adjacency


def test_topology_validates_its_adjacency():
    path = _adjacency(3, [(1, 0), (2, 1)])
    top = dnet.Topology(path)
    assert top.n_nodes == 3
    assert not top.adjacency.flags.writeable
    path[0, 2] = path[2, 0] = True  # the topology holds its own copy
    assert top.neighbors(0) == [1]
    with pytest.raises(dnet.NetError, match="self-loops"):
        dnet.Topology(_adjacency(3, [(0, 0), (0, 1)]))
    asymmetric = np.zeros((3, 3), dtype=bool)
    asymmetric[0, 1] = True
    with pytest.raises(dnet.NetError, match="symmetric"):
        dnet.Topology(asymmetric)
    for bad in (np.zeros((0, 0), dtype=bool), np.zeros((2, 3), dtype=bool),
                np.zeros(3, dtype=bool), np.zeros((3, 3))):
        with pytest.raises(dnet.NetError, match="nonempty square boolean"):
            dnet.Topology(bad)


def test_topology_requires_connectivity():
    split = dnet.metropolis_weights(dnet.Topology(_adjacency(4, [(0, 1), (2, 3)])))
    with pytest.raises(dnet.NetError, match="deflated spectral radius"):
        dnet.check_weight_matrix(split)
    path = dnet.Topology(_adjacency(4, [(0, 1), (1, 2), (2, 3)]))
    dnet.check_weight_matrix(dnet.metropolis_weights(path))


def test_neighbors_are_sorted_and_degrees_consistent():
    top = dnet.ring(5)
    assert top.neighbors(0) == [1, 4]
    assert top.neighbors(3) == [2, 4]
    assert np.array_equal(top.adjacency.sum(axis=1), [2] * 5)
    star = dnet.Topology(_adjacency(4, [(2, 0), (2, 3), (2, 1)]))
    assert star.neighbors(2) == [0, 1, 3]
    assert np.array_equal(star.adjacency.sum(axis=1), [1, 1, 3, 1])


def test_ring_and_complete_shapes():
    assert dnet.ring(4).adjacency.sum() == 2 * 4
    assert dnet.complete(5).adjacency.sum() == 2 * 10
    assert dnet.complete(1).n_nodes == 1
    assert not dnet.complete(1).adjacency.any()
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


def _random_connected_graphs():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        # random spanning tree plus extra edges keeps the graph connected
        edges = {(int(rng.integers(0, i)), i) for i in range(1, n)}
        for _ in range(n):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                edges.add((min(a, b), max(a, b)))
        yield dnet.Topology(_adjacency(n, edges))


def test_metropolis_weights_are_doubly_stochastic_on_random_graphs():
    for top in _random_connected_graphs():
        w = dnet.metropolis_weights(top)
        dnet.check_weight_matrix(w)
        assert np.max(np.abs(w - w.T)) < 1e-15


def test_metropolis_weights_match_a_per_edge_loop_bit_for_bit():
    tops = ([dnet.ring(n) for n in range(3, 9)]
            + [dnet.complete(n) for n in range(1, 9)]
            + list(_random_connected_graphs()))
    for top in tops:
        n = top.n_nodes
        degree = [len(top.neighbors(i)) for i in range(n)]
        want = np.zeros((n, n))
        for a in range(n):
            for b in top.neighbors(a):
                want[a, b] = 1.0 / (1.0 + max(degree[a], degree[b]))
        for i in range(n):
            want[i, i] = 1.0 - want[i].sum()
        assert dnet.metropolis_weights(top).tobytes() == want.tobytes()


def test_check_weight_matrix_flags_violations():
    with pytest.raises(dnet.NetError):
        dnet.check_weight_matrix(np.array([[0.5, 0.5]]))
    with pytest.raises(dnet.NetError):
        dnet.check_weight_matrix(np.array([[1.2, -0.2], [-0.2, 1.2]]))
    with pytest.raises(dnet.NetError):
        dnet.check_weight_matrix(np.array([[0.7, 0.2], [0.2, 0.7]]))
    with pytest.raises(dnet.NetError, match="columns"):
        dnet.check_weight_matrix(np.array([[0.5, 0.5], [0.0, 1.0]]))
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
    out = dnet.aggregate(msgs[:1], msgs, w[:1])
    assert out.shape == (1, 2)
    assert np.allclose(out, [[1.0, 1.0]])


def test_aggregate_plain_rejects_weights_not_summing_to_one():
    with pytest.raises(dnet.NetError):
        dnet.aggregate(np.zeros((1, 2)), np.zeros((4, 2)),
                       np.array([[0.5, 0.0, 0.0, 0.0]]))
    with pytest.raises(dnet.NetError):
        dnet.aggregate(np.zeros((1, 2)), np.zeros((4, 2)), np.zeros((1, 4)))
    # every receiver row is checked, not only the first
    w = dnet.metropolis_weights(dnet.ring(4))
    w[2, 2] += 1e-6
    with pytest.raises(dnet.NetError):
        dnet.aggregate(np.zeros((4, 2)), np.zeros((4, 2)), w)


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
        out = dnet.aggregate(self_theta[None], msgs, w[:1], tau)
        assert np.linalg.norm(out[0] - self_theta) <= tau + 1e-12


def test_clipping_is_inert_for_nearby_messages():
    w = dnet.metropolis_weights(dnet.ring(4))
    self_theta = np.array([1.0, 1.0])
    msgs = np.stack([self_theta, self_theta + np.array([0.01, 0.0]),
                     np.full(2, 50.0), self_theta - np.array([0.0, 0.01])])
    robust = dnet.aggregate(self_theta[None], msgs, w[:1], tau=1.0)
    plain = dnet.aggregate(self_theta[None], msgs, w[:1])
    assert np.max(np.abs(robust - plain)) < 1e-12


def _aggregate_by_loop(halves, messages, w, tau):
    """Per receiver, the weighted sum over its nonzero weights in node order,
    each message clipped around the receiver's half-step when tau is set."""
    out = []
    for self_theta, row in zip(halves, w):
        acc = None
        for j, weight in enumerate(row):
            if weight == 0.0:
                continue
            msg = messages[j]
            if tau is not None:
                msg = self_theta + dnet.clip(messages[j] - self_theta, tau)
            term = weight * msg
            acc = term if acc is None else acc + term
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("graph", [dnet.ring, dnet.complete])
def test_aggregate_matches_the_per_node_loop(graph, n):
    rng = np.random.default_rng(n)
    w = dnet.metropolis_weights(graph(n))
    for _ in range(5):
        receivers = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
        messages = rng.normal(scale=0.3, size=(n, 7))
        halves = messages[receivers].copy()
        unread = np.flatnonzero(~w[receivers].any(axis=0))
        if len(unread):  # a row no receiver's weights select is never read
            messages[unread[0]] = np.nan
        for tau in (None, 0.05, 0.5, 50.0):
            got = dnet.aggregate(halves, messages, w[receivers], tau)
            want = _aggregate_by_loop(halves, messages, w[receivers], tau)
            assert np.array_equal(got, want)


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
