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

from dataclasses import dataclass

import numpy as np


class NetError(ValueError):
    pass


HONEST = "honest"
GAUSSIAN_ATTACKER = "gaussian_attacker"
SIGNFLIP_ATTACKER = "signflip_attacker"
ROLES = (HONEST, GAUSSIAN_ATTACKER, SIGNFLIP_ATTACKER)


@dataclass(frozen=True, eq=False)
class Topology:
    """Undirected graph without self-loops, as a read-only boolean adjacency
    matrix. Connectivity is checked on its mixing weights:
    `check_weight_matrix` rejects those of a disconnected graph, whose
    deflated spectral radius is 1."""

    adjacency: np.ndarray

    def __post_init__(self):
        adjacency = np.array(self.adjacency)
        if (adjacency.dtype != bool or adjacency.ndim != 2 or not len(adjacency)
                or adjacency.shape[0] != adjacency.shape[1]):
            raise NetError("adjacency must be a nonempty square boolean matrix")
        if adjacency.diagonal().any():
            raise NetError("self-loops are not stored")
        if not np.array_equal(adjacency, adjacency.T):
            raise NetError("adjacency must be symmetric")
        adjacency.flags.writeable = False
        object.__setattr__(self, "adjacency", adjacency)

    def neighbors(self, i: int) -> list:
        return np.flatnonzero(self.adjacency[i]).tolist()


def ring(n_nodes: int) -> Topology:
    if n_nodes < 3:
        raise NetError("a ring needs at least 3 nodes")
    successor = np.roll(np.eye(n_nodes, dtype=bool), 1, axis=1)
    return Topology(successor | successor.T)


def complete(n_nodes: int) -> Topology:
    # n_nodes = 1 is the degenerate single-vertex graph (no edges)
    if n_nodes < 1:
        raise NetError("a complete graph needs at least 1 node")
    return Topology(~np.eye(n_nodes, dtype=bool))


def metropolis_weights(top: Topology) -> np.ndarray:
    """Symmetric doubly stochastic W from node degrees."""
    degree = top.adjacency.sum(axis=1)
    w = np.where(top.adjacency,
                 1.0 / (1.0 + np.maximum.outer(degree, degree)), 0.0)
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
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


def clip(v: np.ndarray, tau: float) -> np.ndarray:
    if not tau > 0:
        raise NetError("tau must be positive")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= tau:
        return v.copy()
    return (tau / norm) * v


def aggregate(halves: np.ndarray, messages: np.ndarray, w: np.ndarray,
              tau: float | None = None) -> np.ndarray:
    """Mix the round's (N, T) ``messages`` into each receiver over its
    in-edges, the nonzero entries of its row of ``w``, in node order.

    ``halves`` holds the receivers' half-steps, one per row of ``w``; each row
    must sum to 1, and rows no weight selects are never read. With ``tau``,
    each message's displacement from the receiver's half-step is clipped to
    norm tau and added back, so the result stays within tau of it
    (self-centered clipping; He, Karimireddy & Jaggi, arXiv:2202.01545).
    """
    if not np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9):
        raise NetError("weights over the neighborhood must sum to 1")
    rows, cols = np.nonzero(w)
    sent = messages[cols]  # one row per in-edge
    if tau is not None:
        base = halves[rows]
        sent = base + np.array([clip(d, tau) for d in sent - base])
    # -0.0 + x is x for every x, so each receiver's first term is kept as is
    out = np.full(halves.shape, -0.0)
    np.add.at(out, rows, w[rows, cols][:, None] * sent)
    return out


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
    if not len(stack):
        raise NetError("consensus distance needs at least one node")
    return float(np.max(np.linalg.norm(stack - stack.mean(axis=0), axis=1)))
