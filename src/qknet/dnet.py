"""Network topology, mixing weights, robust aggregation, message attacks.

A communication round is a barrier-synchronized superstep: every node computes
a half-step parameter vector, messages cross the edges, and each node mixes
what it received with doubly stochastic weights. A round's messages are one
(N, T) array, row j what node j broadcasts; a node reads the rows its weight
row selects. Attackers replace their half-step with a vector crafted from the
messages they collected; the robust rule clips each message's displacement
from the receiver's own half-step, which bounds how far any single message
can drag the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class NetError(ValueError):
    pass


HONEST = "honest"
GAUSSIAN_ATTACKER = "gaussian_attacker"
SIGNFLIP_ATTACKER = "signflip_attacker"
ROLES = (HONEST, GAUSSIAN_ATTACKER, SIGNFLIP_ATTACKER)


@dataclass(frozen=True)
class Topology:
    """Undirected graph without self-loops. Connectivity is checked on its
    mixing weights: `check_weight_matrix` rejects those of a disconnected
    graph, whose deflated spectral radius is 1."""

    n_nodes: int
    edges: frozenset
    _adjacency: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 1:
            raise NetError("need at least one node")
        edges = set()
        for e in self.edges:
            a, b = e
            if a == b:
                raise NetError("self-loops are not stored")
            if not (0 <= a < self.n_nodes and 0 <= b < self.n_nodes):
                raise NetError(f"edge {e} out of range")
            edges.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", frozenset(edges))
        adjacency = [[] for _ in range(self.n_nodes)]
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        object.__setattr__(self, "_adjacency",
                           tuple(tuple(sorted(adj)) for adj in adjacency))

    def neighbors(self, i: int) -> list:
        return list(self._adjacency[i])

    def degree(self, i: int) -> int:
        return len(self._adjacency[i])


def ring(n_nodes: int) -> Topology:
    if n_nodes < 3:
        raise NetError("a ring needs at least 3 nodes")
    edges = frozenset((i, (i + 1) % n_nodes) for i in range(n_nodes))
    return Topology(n_nodes, edges)


def complete(n_nodes: int) -> Topology:
    # n_nodes = 1 is the degenerate single-vertex graph (no edges)
    if n_nodes < 1:
        raise NetError("a complete graph needs at least 1 node")
    edges = frozenset((i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes))
    return Topology(n_nodes, edges)


def metropolis_weights(top: Topology) -> np.ndarray:
    """Symmetric doubly stochastic W from node degrees."""
    n = top.n_nodes
    w = np.zeros((n, n))
    for a, b in top.edges:
        w[a, b] = w[b, a] = 1.0 / (1.0 + max(top.degree(a), top.degree(b)))
    for i in range(n):
        w[i, i] = 1.0 - w[i].sum()
    return w


def check_weight_matrix(w: np.ndarray) -> None:
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise NetError("weight matrix must be square")
    if np.any(w < -1e-12):
        raise NetError("weights must be nonnegative")
    if not np.allclose(w.sum(axis=1), 1.0, atol=1e-12):
        raise NetError("rows must sum to 1")
    if not np.allclose(w.sum(axis=0), 1.0, atol=1e-12):
        raise NetError("columns must sum to 1")
    if spectral_gap(w) >= 1.0 - 1e-12:
        raise NetError("deflated spectral radius must be below 1")


def spectral_gap(w: np.ndarray) -> float:
    """Largest |eigenvalue| of W deflated by the consensus projector."""
    n = len(w)
    deflated = w - np.full((n, n), 1.0 / n)
    return float(np.max(np.abs(np.linalg.eigvals(deflated))))


def aggregate_plain(messages: np.ndarray, weights_row: np.ndarray) -> np.ndarray:
    """Weighted average over the closed neighborhood (self included).

    ``messages`` is the round's (N, T) broadcast, one row per node; only the
    rows with nonzero weight are read, in node order.
    """
    out = None
    total = 0.0
    for j, w in enumerate(weights_row):
        if w == 0.0:
            continue
        total += w
        term = w * messages[j]
        out = term if out is None else out + term
    if out is None or abs(total - 1.0) > 1e-9:
        raise NetError("weights over the neighborhood must sum to 1")
    return out


def clip(v: np.ndarray, tau: float) -> np.ndarray:
    if not tau > 0:
        raise NetError("tau must be positive")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= tau:
        return v.copy()
    return (tau / norm) * v


def aggregate_robust(self_theta: np.ndarray, messages: np.ndarray,
                     weights_row: np.ndarray, tau: float) -> np.ndarray:
    """Clipping aggregation: bound each message's pull before averaging.

    ``messages`` is read as in aggregate_plain. Each message's displacement
    from the local half-step is clipped to norm tau and added back, so the
    result stays within tau of self_theta (self-centered clipping; He,
    Karimireddy & Jaggi, arXiv:2202.01545).
    """
    clipped = np.zeros_like(messages, dtype=float)
    for j, w in enumerate(weights_row):
        if w == 0.0:
            continue
        clipped[j] = self_theta + clip(messages[j] - self_theta, tau)
    return aggregate_plain(clipped, weights_row)


GAUSSIAN_ATTACK_STD = np.pi
"""Spread of the Gaussian attacker's draw, on the scale of an RY angle.

A spread taken from the received messages shrinks to zero as the network
reaches consensus, and the draw becomes an echo of the neighbors' mean that
cannot move accuracy. On the checkerboard, kernels with angles drawn
uniformly from +-pi score 0.55-0.60 (0.975 at theta = 0), so a draw on
this scale can pull honest nodes off their trained angles.
"""


def _received_mean(neighbor_messages) -> np.ndarray:
    """Per-coordinate mean of the messages an attacker received."""
    msgs = np.asarray(neighbor_messages, dtype=float)
    if not len(msgs):
        raise NetError("attacker needs at least one received message")
    return msgs.mean(axis=0)


def attack_gaussian(neighbor_messages, rng: np.random.Generator) -> np.ndarray:
    """Draw from a Normal centered on the mean of the received messages.

    The center is the per-coordinate mean across the neighbors; every
    coordinate has the fixed spread GAUSSIAN_ATTACK_STD, so the injection
    does not vanish when the neighbors agree.
    """
    return rng.normal(_received_mean(neighbor_messages), GAUSSIAN_ATTACK_STD)


def attack_signflip(neighbor_messages) -> np.ndarray:
    return -_received_mean(neighbor_messages)


def consensus_distance(thetas) -> float:
    """Largest node deviation from the network mean, in the 2-norm."""
    stack = np.asarray(thetas, dtype=float)
    if len(stack) < 2:
        raise NetError("consensus distance needs at least two nodes")
    mean = stack.mean(axis=0)
    return float(np.max(np.linalg.norm(stack - mean, axis=1)))
