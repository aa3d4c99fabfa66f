"""Measurement-free quantum error correction on density matrices.

Encode a qubit into the 3-, 5-, or 9-qubit code, push it through a
probabilistic Pauli channel, and recover it with a single orthogonal matrix:
the output factorizes exactly as (original qubit) x (diagnostic ancilla), so
no syndrome measurement or projection is ever applied.

The modules are imported by name: uqec.linalg, uqec.codes, uqec.recovery,
uqec.analysis and uqec.cli (the command line, also `python -m uqec.cli`).
"""

__version__ = "0.1.0"
