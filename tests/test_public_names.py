"""Every public module-level name and method in src/graphstress is used by the program.

A function or class that no other code in ``src/`` or ``scripts/`` refers to,
or a public method of a class there that no such code reads as an attribute,
is reachable from no protocol: it is either wired in or deleted. Names the
program never calls but that stay public on purpose are listed below, each
with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "graphstress"

UNREFERENCED_ON_PURPOSE = {
    "balanced_accuracy": "acceptance oracle of the imbalance metrics",
    "macro_f1": "acceptance oracle of the imbalance metrics",
    "cross_dataset": "acceptance oracle of cross-dataset aggregation",
    "rank_of_true": "acceptance oracle of the segmented ranking kernel",
    "rank_and_mask": "acceptance oracle of one condition's masked split",
    "load_report": "reads a written report back",
    "read_manifest_file": "external side of the manifest exchange",
    "write_probs_file": "external side of the probabilities exchange",
    "write_saliency_file": "external side of the saliency exchange",
    "write_ranking_file": "external side of the ranking exchange",
}


def _names_used(node) -> set:
    """Names, attributes and imported names anywhere under node."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def _unreferenced() -> set:
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    # one entry per top-level statement: (file, statement, names it uses)
    statements = [(path, stmt, _names_used(stmt))
                  for path in files for stmt in ast.parse(path.read_text()).body]
    attributes = {sub.attr for _, stmt, _ in statements for sub in ast.walk(stmt)
                  if isinstance(sub, ast.Attribute)}
    unreferenced = set()
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or not isinstance(
                stmt, (ast.FunctionDef, ast.ClassDef)) or stmt.name.startswith("_"):
            continue
        if not any(stmt.name in used for _, other, used in statements
                   if other is not stmt):
            unreferenced.add(stmt.name)
        if isinstance(stmt, ast.ClassDef):  # its methods, as Class.method
            unreferenced |= {f"{stmt.name}.{m.name}" for m in stmt.body
                             if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")
                             and m.name not in attributes}
    return unreferenced


def test_every_public_name_is_referenced():
    unreferenced = _unreferenced()
    unused = sorted(unreferenced - set(UNREFERENCED_ON_PURPOSE))
    assert not unused, f"public names no code in src/ or scripts/ refers to: {unused}"
    stale = sorted(set(UNREFERENCED_ON_PURPOSE) - unreferenced)
    assert not stale, f"allowlisted names that are now referenced or gone: {stale}"
