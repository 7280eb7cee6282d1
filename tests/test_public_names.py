"""Every public module-level name and method in src/graphstress is used by the program.

A function or class that no other code in ``src/`` or ``scripts/`` refers to,
or a public method of a class there that no such code reads as an attribute,
is reachable from no protocol: it is either wired in or deleted. Names the
program never calls but that stay public on purpose are listed below, each
with its reason.

Likewise every defaulted parameter of a public function, method or class
``__init__`` is set by some call in ``src/``, ``scripts/`` or ``perfbench/``
(tests excluded): a default no caller overrides is a constant, written as one.

And every error class of ``errors.py`` is raised somewhere in ``src/``: a class that
no program path can raise is no part of the error vocabulary.
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

# "function.parameter" -> why its default stays a parameter although no program call sets it
DEFAULTS_SET_BY_TESTS_ON_PURPOSE = {
    "make_molecule_collection.name": "tests name their collections to keep datasets apart",
    "make_molecule_collection.num_graphs": "tests size their collections; the benchmark's "
                                           "molecules are to come from it at 2e4 graphs",
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


def _defaulted(func: ast.FunctionDef, skip: int) -> list:
    """(parameter, position in a call or None if keyword-only) of each defaulted parameter;
    ``skip`` leading parameters (self, cls) take no position in a call."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, i - skip) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def _public_defaults() -> dict:
    """Qualified name -> (the name its calls use, its defaulted parameters)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                out[stmt.name] = (stmt.name, _defaulted(stmt, 0))
            if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
                for m in stmt.body:
                    if isinstance(m, ast.FunctionDef) and (
                            m.name == "__init__" or not m.name.startswith("_")):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in m.decorator_list)
                        out[f"{stmt.name}.{m.name}"] = (
                            stmt.name if m.name == "__init__" else m.name,
                            _defaulted(m, 0 if static else 1))
    return out


def _calls() -> dict:
    """Called name -> [(positional arguments before any *, whether a * follows, keywords)];
    a ``**`` argument is the keyword None. ``import ... as`` aliases resolve to the name."""
    files = [path for folder in ("src", "scripts", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             if "tests" not in path.relative_to(ROOT).parts]
    calls = {}
    for path in files:
        tree = ast.parse(path.read_text())
        alias = {a.asname: a.name.rsplit(".", 1)[-1] for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = (alias.get(func.id, func.id) if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                star = next((i for i, arg in enumerate(node.args)
                             if isinstance(arg, ast.Starred)), len(node.args))
                calls.setdefault(name, []).append(
                    (star, star < len(node.args), {kw.arg for kw in node.keywords}))
    return calls


def _unset_defaults() -> set:
    calls = _calls()
    unset = set()
    for qualified, (name, params) in _public_defaults().items():
        if qualified in UNREFERENCED_ON_PURPOSE:
            continue
        for param, pos in params:
            if not any(param in keywords or None in keywords
                       or (pos is not None and (pos < n or starred))
                       for n, starred, keywords in calls.get(name, [])):
                unset.add(f"{qualified}.{param}")
    return unset


def test_every_default_is_set_by_some_call():
    unset = _unset_defaults()
    constants = sorted(unset - set(DEFAULTS_SET_BY_TESTS_ON_PURPOSE))
    assert not constants, ("defaulted parameters no call in src/, scripts/ or perfbench/ sets: "
                           f"{constants}")
    stale = sorted(set(DEFAULTS_SET_BY_TESTS_ON_PURPOSE) - unset)
    assert not stale, f"allowlisted defaults that a call now sets or that are gone: {stale}"


def test_every_error_class_is_raised():
    """Each StressError subclass in errors.py is named in some ``raise`` of src/graphstress.

    A class that a lambda builds also counts: such a lambda is an error factory that
    a raise calls (``metrics.lookup_rows`` raises what its ``missing`` returns).
    """
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = {stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)
               and stmt.name != "StressError"}
    raised = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised |= _names_used(node.exc)
            elif isinstance(node, ast.Lambda) and isinstance(node.body, ast.Call):
                raised |= _names_used(node.body.func)
    never = sorted(classes - raised)
    assert not never, f"error classes no raise in src/graphstress names: {never}"
