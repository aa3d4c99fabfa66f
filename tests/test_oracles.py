"""oracles.py imports nothing from the package, directly or through dense.py,
so its references cannot share a bug with the code they check."""

import ast
from pathlib import Path


def test_oracles_do_not_import_the_package():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "numpy" in imported
    assert not any(name.split(".")[0] in ("uqec", "dense", "") for name in imported), imported
