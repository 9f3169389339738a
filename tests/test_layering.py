"""The package's import graph: each module imports only the layers below it.

``netgraph`` is the bottom layer, the graph model and the one rule for
node indices and sizes; ``diffcore`` and ``exact_routing`` build on it
alone, and ``surrogate`` on both of those.  A module that reached upward
would make an import cycle, or a second copy of a rule a lower layer
should own.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "routegrad"


def package_imports(module: str) -> set:
    """The ``routegrad`` modules ``module`` names in its relative imports."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # an absolute import of the package would hide an edge
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            assert all(m.split(".")[0] != "routegrad" for m in modules), f"{module} imports routegrad by name"
    return names


def test_import_graph_is_layered():
    graph = {path.stem: package_imports(path.stem) for path in PACKAGE.glob("*.py")}
    assert graph == {
        "__init__": set(),
        "netgraph": set(),
        "diffcore": {"netgraph"},
        "exact_routing": {"netgraph"},
        "surrogate": {"diffcore", "netgraph"},
    }
