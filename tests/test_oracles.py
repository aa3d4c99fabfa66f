"""oracles.py imports nothing from the package, directly or through dense.py,
so its references cannot share a bug with the code they check; and its two
brute-force constructions of an embedded operator agree."""

import ast
from pathlib import Path

import numpy as np
import pytest

from oracles import I1Q, X1Q, Y1Q, Z1Q, embed_brute, kron_brute


def test_oracles_do_not_import_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "numpy" in imported
    assert not any(name.split(".")[0] in ("uqec", "dense", "") for name in imported), imported


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_embedding_by_bits_equals_the_kronecker_chain(n):
    for op in (X1Q, Y1Q, Z1Q, np.array([[1.0, 2.0], [3.0, 4.0]])):
        for qubit in range(1, n + 1):
            chain = np.array([[1.0]])
            for q in range(1, n + 1):
                chain = kron_brute(chain, op if q == qubit else I1Q)
            assert np.array_equal(embed_brute(op, qubit, n), chain)
