"""Decentralized quantum kernel learning over simulated noisy nodes.

Import the submodules by name (``from qknet import runner``); the package
loads none of them itself, so a run never loads the gate-by-gate reference
(``qsim`` + ``qkernel``).
"""

__version__ = "0.1.0"
