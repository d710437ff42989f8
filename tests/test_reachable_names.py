"""Every public top-level function and class of ``nessgeom`` has a user in
``src/``.

A name whose only mention in the package is its own definition serves the
tests alone and belongs under ``tests/``.  Two kinds of name are exempt:
the entry points that ``perfbench/tracing.py`` wraps (``TIMED``), and the
paper's reference routines below, which reproduce its equilibrium sections
and the dense metrics the oracle arbitrates with.
"""
import ast
from pathlib import Path

from test_traced_names import _timed

SRC = Path(__file__).resolve().parents[1] / "src" / "nessgeom"

PAPER_ROUTINES = (
    "models.xy_ground_berry_phase",
    "models.xy_relative_phase",
    "models.xy_thermodynamic_relative_phase",
    "models.xy_qgt_finite",
    "models.xy_qgt_thermodynamic",
    "models.two_level_berry_phase",
    "models.dicke_berry_phase",
    "models.dicke_thermodynamic_berry_phase",
    "models.dicke_scaling_reference",
    "oracle.bures_angle",
    "oracle.bures_distance",
    "oracle.fisher_rao_beta",
    "oracle.optimal_distinguishing_observable",
    "oracle.pure_state_qgt",
    "oracle.uhlmann_loop_phase",
)


def _mentions(node: ast.AST) -> set[str]:
    """Names, attributes, imported names and string constants under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unused_public_names(src: Path = SRC) -> list[str]:
    """``module.name`` of each public top-level function or class that no
    code in ``src`` mentions outside its own definition."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined[f"{module}.{node.name}"] = node
    # every mention, by the top-level statement it sits in
    mentioned = {}
    for module, tree in trees.items():
        for node in tree.body:
            for name in _mentions(node):
                mentioned.setdefault(name, []).append(node)
    return sorted(
        key for key, node in defined.items()
        if all(stmt is node for stmt in mentioned.get(node.name, ()))
    )


def test_paper_routines_exist():
    # an exemption for a name that is gone would hide nothing, but rot
    for key in PAPER_ROUTINES:
        module, name = key.split(".")
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        assert name in {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}, key


def test_public_names_have_a_user_in_src():
    timed = {f"{module}.{attr.split('.')[0]}" for module, attr, _ in _timed()}
    unused = [name for name in unused_public_names()
              if name not in timed and name not in PAPER_ROUTINES]
    assert unused == [], f"public names only the tests use; move them under tests/: {unused}"
