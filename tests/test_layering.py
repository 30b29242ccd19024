"""The package's internal dependency layers, read from the source with `ast`:
no module is imported, so the check has no import side effects."""

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "fsalign")

# module -> exactly the package modules it imports
LAYERS = {
    "specs": set(),
    "boxes": set(),
    "autodiff": set(),
    "scale_space": {"specs"},
    "grouping": {"scale_space"},
    "losses": {"autodiff", "specs"},
    "synth": {"boxes", "specs"},
    "network": {"autodiff", "boxes", "specs"},
}


def package_imports(module):
    """The package modules that `module`'s relative imports name."""
    with open(os.path.join(PACKAGE, module + ".py")) as f:
        tree = ast.parse(f.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_each_module_imports_only_its_layers():
    assert {m: package_imports(m) for m in LAYERS} == LAYERS
