"""The package surface: each module's ``__all__`` is the one list of its public names; no
module imports a name it does not use, the modules import one another one way only, only
``measure.exact_row_sums`` calls ``math.fsum``, beside the one TwoSum, ``measure._two_sum``,
only ``geometry`` reads a domain's sign flag, only ``sampling`` draws from a generator, only
``entropies._periodic_differences`` rolls an array, each catalog entropy is named once, in the
catalog table, and the CLI writes table cells only through the array formatter."""

import ast
import re
from pathlib import Path

import numpy as np

import entroscore
from entroscore import bregman, entropies, errors, geometry, grid, measure, sampling, scoring
from entroscore.measure import MeasureSpace

MODULES = (errors, measure, geometry, entropies, scoring, bregman, grid, sampling)

# The package's public names before ``__all__`` was built from the module lists;
# every one must still import from ``entroscore``.
EARLIER_NAMES = (
    "ASYMMETRIC_WITH_WITNESS", "AffineScore", "CATALOG_NAMES", "CompositeEntropySpec", "ConeVector",
    "ConstructionError", "ConvexDomainSpec", "DENSITY_MASS_TOL", "Density", "DivergenceReport",
    "DomainError", "DualVector", "Entropy", "EntroscoreError", "EulerReport", "GridDensity",
    "INCONCLUSIVE", "MeasureSpace", "PeriodicGrid", "ProprietyReport",
    "SYMMETRIC_GENERALIZED_QUADRATIC", "ScoringRule", "StructureError", "SubgradientProbeResult",
    "__version__", "affine_score_at", "annihilator_basis", "bregman_divergence",
    "bregman_divergence_rows", "canonical_extension_value", "catalog_entropy", "composite_entropy",
    "direction_cone_membership", "directional_derivative_fd", "expected_score",
    "extended_subgradient", "fisher_entropy", "hyvarinen_divergence", "hyvarinen_score",
    "is_quasi_interior", "lineality_space", "linear_score", "linearity_check",
    "make_psr", "pair", "pair_rows", "parse_rule_spec",
    "quadratic_discrimination_bound", "rebase_entropy", "sample_cone_point", "sample_density",
    "sample_positive_box", "score_divergence", "score_divergence_rows", "subdifferential_probe",
    "symmetry_defect", "verify_euler", "verify_propriety", "zero_homog_extend",
)


def test_package_all_joins_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__] + ["__version__"]
    assert entroscore.__all__ == joined
    assert len(set(joined)) == len(joined)


def test_earlier_public_names_still_import():
    namespace = {}
    exec(f"from entroscore import {', '.join(EARLIER_NAMES)}", namespace)
    assert set(EARLIER_NAMES) <= set(namespace)
    assert set(EARLIER_NAMES) <= set(entroscore.__all__)


def _module_trees() -> dict[str, ast.Module]:
    src = Path(entroscore.__file__).parent
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside string annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [arg.annotation for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                                      args.vararg, args.kwarg) if arg] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for part in (sub for ann in annotations if ann for sub in ast.walk(ann)):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name)}
    return used


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    for module, tree in _module_trees().items():
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names if alias.name != "*")
                unused += [f"{module}:{node.lineno}: {name}" for name in bound if name not in used]
    assert unused == []


# Each module imports only modules earlier in this order, at its top level.
LAYERS = ("errors", "measure", "sampling", "geometry", "entropies", "scoring", "bregman", "grid", "shortest", "cli")


def _package_imports(node: ast.AST) -> list[str]:
    """The ``entroscore`` modules an import statement names (none for any other statement)."""
    if isinstance(node, ast.ImportFrom) and node.level:
        return [node.module] if node.module else [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entroscore"):
        return [node.module.partition(".")[2] or alias.name for alias in node.names]
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[2] for alias in node.names if alias.name.startswith("entroscore")]
    return []


def test_modules_import_one_another_one_way():
    trees = _module_trees()
    assert set(trees) - {"__init__.py"} == {f"{name}.py" for name in LAYERS}
    wrong = []
    for name in LAYERS:
        tree = trees[f"{name}.py"]
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            for target in _package_imports(node):
                if id(node) not in top:  # in a function body, or under ``if TYPE_CHECKING``
                    wrong.append(f"{name}:{node.lineno}: nested import of {target}")
                elif target not in LAYERS[:LAYERS.index(name)]:
                    wrong.append(f"{name}:{node.lineno}: imports {target}")
    assert wrong == []


def _owned_nodes():
    """``(module:top-level name, node)`` for every node of every package module; a top-level
    assignment is named by its first target, any other statement by its line."""
    for module, tree in _module_trees().items():
        for top in tree.body:
            name = ast.unparse(top.targets[0]) if isinstance(top, ast.Assign) else top.lineno
            for node in ast.walk(top):
                yield f"{module}:{getattr(top, 'name', name)}", node


def test_only_measure_calls_math_fsum():
    # and only in exact_row_sums, the one exact-sum kernel
    calls = [owner for owner, node in _owned_nodes()
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("math.fsum", "fsum")]
    assert calls == ["measure.py:exact_row_sums"]


# What turns a value into text: the builtins, the format methods, numpy's text writers
TEXT_CALLS = {"repr", "str", "format", "ascii", "format_map", "savetxt", "array2string", "array_repr", "array_str",
              "format_float_positional", "format_float_scientific"}


def test_the_cli_writes_table_cells_only_through_the_array_formatter():
    # outside the messages it raises, cli.py turns no value into text but by shortest.format_rows
    # (in _table_lines): no repr, format spec or %-format, and str only on the inf counts, which
    # are ints, and as a parser of config text; annotations and str's methods name it too
    tree = _module_trees()["cli.py"]
    skipped = [node for node in ast.walk(tree) if isinstance(node, ast.Raise)]
    skipped += [node.annotation for node in ast.walk(tree) if isinstance(node, ast.arg) and node.annotation]
    skipped += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.returns]
    skipped += [node.value for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and ast.unparse(node.value) == "str"]
    skipped = {id(node) for top in skipped for node in ast.walk(top)}
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None) or ast.unparse(getattr(top, "targets", [top])[0])
        for node in (node for node in ast.walk(top) if id(node) not in skipped):
            if (getattr(node, "id", getattr(node, "attr", None)) in TEXT_CALLS
                    or isinstance(node, ast.FormattedValue) and (node.conversion != -1 or node.format_spec)
                    or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and isinstance(node.left, ast.Constant)
                    or isinstance(node, ast.Call) and ast.unparse(node.func) == "format_rows"):
                found.append((owner, ast.unparse(getattr(node, "func", node))))
    assert sorted(found) == [("_SECTIONS", "str")] * 3 + [("_table_lines", "format_rows"), ("cmd_score", "str")]


def _is_two_sum_error(node) -> bool:
    """``(a - (s - b)) + (c - b)``, either way round: the error term of TwoSum."""
    def sub(x):
        return isinstance(x, ast.BinOp) and isinstance(x.op, ast.Sub)

    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    return any(sub(left) and sub(left.right) and sub(right)
               and ast.unparse(left.right.right) == ast.unparse(right.right)
               for left, right in ((node.left, node.right), (node.right, node.left)))


def test_two_sum_is_written_once():
    # measure._two_sum is the one TwoSum: no other function is named for it, and no
    # other code inlines its error term
    found = [owner for owner, node in _owned_nodes()
             if isinstance(node, ast.FunctionDef) and "two_sum" in node.name.lower() or _is_two_sum_error(node)]
    assert found == ["measure.py:_two_sum", "measure.py:_two_sum"]  # the definition and its error term


def test_only_geometry_reads_the_sign_flag():
    # the sign rule is written once, as ConvexDomainSpec.negative_rows: every other module asks
    # it which rows an entropy is undefined at, and none reads the flag behind it
    readers = [owner for owner, node in _owned_nodes()
               if isinstance(node, ast.Attribute) and node.attr == "nonnegative"]
    assert readers and [owner for owner in readers if not owner.startswith("geometry.py:")] == []


def test_only_sampling_draws_from_a_generator():
    # sampling makes every seeded draw: no other module calls a Generator method (np.power and
    # math.gamma are not draws), and np.random gives nothing but default_rng
    methods = {name for name in dir(np.random.Generator) if not name.startswith("_")}
    found = []
    for module, tree in _module_trees().items():
        calls = [node.func for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and module != "sampling.py"]
        found += [f"{module}:{func.lineno}: {ast.unparse(func)}" for func in calls
                  if (owner := ast.unparse(func.value)) == "np.random" and func.attr != "default_rng"
                  or owner not in ("np", "math", "np.random") and func.attr in methods]
    assert found == []


def test_each_catalog_name_is_written_once():
    # as a key of the catalog table, "quadratic" once more, as the entropy of cli's linear
    # alias, and "fisher" once more, as the entropy of grid's periodic grid: adding an entropy
    # is one row of the table
    found = [(owner, node.value) for owner, node in _owned_nodes()
             if isinstance(node, ast.Constant) and node.value in entropies.CATALOG_NAMES]
    assert found == [("cli.py:_ALIASES", "quadratic"),
                     *(("entropies.py:_CATALOG", name) for name in entropies.CATALOG_NAMES),
                     ("grid.py:PeriodicGrid", "fisher")]


def test_the_centred_difference_is_written_once():
    # entropies._periodic_differences is the one centred difference: no other code rolls an array
    found = [owner for owner, node in _owned_nodes()
             if isinstance(node, ast.Attribute) and ast.unparse(node) in ("np.roll", "numpy.roll")]
    assert found == ["entropies.py:_periodic_differences"] * 2


def test_the_cli_reads_each_entropy_it_looks_up_as_a_rule_spec():
    # one grammar: a CLI function that asks the catalog about an entropy reads its name with
    # parse_rule_spec, so --rules, [rule SPEC] and [probe] name entropies alike
    looked_up, unread = [], []
    for func in ast.walk(_module_trees()["cli.py"]):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            called = {ast.unparse(node.func) for node in ast.walk(func) if isinstance(node, ast.Call)}
            if called & {"catalog_entropy", "catalog_symmetric"}:
                looked_up.append(func.name)
                if "parse_rule_spec" not in called:
                    unread.append(func.name)
    assert "build_rule" in looked_up and unread == []


def test_the_readme_catalog_paragraph_names_every_entry():
    readme = (Path(entroscore.__file__).parents[2] / "README.md").read_text(encoding="utf-8")
    paragraph = next(part for part in readme.split("\n\n") if part.startswith("Entropy catalog:"))
    assert [name for name in entropies.CATALOG_NAMES if not re.search(rf"`{name}[`(]", paragraph)] == []


def test_the_gradient_oracle_is_value_grad_rows_only():
    # value_grad_rows replaced the separate gradient oracle, whose name must not come back
    # in the package, its tests, the demos or the README (this file names it only in pieces)
    root = Path(entroscore.__file__).parents[2]
    retired = re.compile(r"\b" + "grad" + r"_rows\b")
    paths = [root / "README.md",
             *(path for part in ("src", "tests", "demos") for path in (root / part).rglob("*.py"))]
    hits = [f"{path.relative_to(root)}:{number}" for path in paths
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if retired.search(line)]
    assert hits == []


# The library raises typed errors and lets them through; only the CLI turns them into
# exit codes.  A library module may catch FloatRangeError, whose rows it then counts or
# names, but no broader class: that would re-label faults it did not classify.
BROAD_ERRORS = {"DomainError", "EntroscoreError", "Exception", "BaseException"}


def _broad_handlers(tree: ast.Module) -> list[tuple[str, ast.ExceptHandler]]:
    """(innermost enclosing function, handler) for each bare except or one that names a broad class."""
    owner = {}
    for func in ast.walk(tree):  # outer functions come first, so an inner one overrides them
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update({id(node): func.name for node in ast.walk(func)})
    return [(owner.get(id(node), "<module>"), node) for node in ast.walk(tree)
            if isinstance(node, ast.ExceptHandler)
            and (node.type is None or {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
                 & BROAD_ERRORS)]


def test_library_modules_catch_no_broad_error():
    caught = [(f"{module}:{handler.lineno}", owner, handler) for module, tree in _module_trees().items()
              if module != "cli.py" for owner, handler in _broad_handlers(tree)]
    # only symmetry_defect's, which adds the box of its sample points after the message it caught
    assert [(module, owner) for module, owner, _ in caught] == [(caught[0][0], "symmetry_defect")], caught
    raised = caught[0][2].body[-1]
    assert isinstance(raised, ast.Raise)
    assert ast.unparse(raised.exc).startswith(f"DomainError(f'{{{caught[0][2].name}}}; ")


# Vector objects are built, and one-row entry points called, only by public functions: the
# private helpers of the library pass raw rows.  A name here is caught as a call by name or
# as a method call.
VECTOR_ONLY_CALLS = {"ConeVector", "Density", "DualVector", "cone", "density", "dual",  # construction
                     "pair", "score", "value", "subgradient", "closed_form_score", "contains"}


def test_private_functions_build_no_vector_and_make_no_one_row_call():
    found = []
    for module, tree in _module_trees().items():
        if module == "cli.py":
            continue
        for func in ast.walk(tree):
            if (isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) and func.name.startswith("_")
                    and not (func.name.startswith("__") and func.name.endswith("__"))):
                calls = (node.func for node in ast.walk(func) if isinstance(node, ast.Call))
                found += [f"{module}:{call.lineno}: {func.name} calls {ast.unparse(call)}" for call in calls
                          if getattr(call, "attr", getattr(call, "id", None)) in VECTOR_ONLY_CALLS]
    assert found == []


def test_the_vector_reprs():
    space = MeasureSpace([1.0, 2.0, 0.5])
    entropy = entropies.catalog_entropy("quadratic", space)
    assert repr(space) == "MeasureSpace(n=3)"
    assert repr(space.cone([1.0, -0.5, 1 / 3])) == "ConeVector([ 1.       -0.5       0.333333])"
    assert repr(space.density([0.5, 0.125, 0.5])) == "Density([0.5   0.125 0.5  ])"
    assert repr(space.dual([-np.inf, 0.0, 2.0], allow_infinite=True)) == "DualVector([-inf   0.   2.])"
    assert repr(entropy) == "Entropy('quadratic', domain=halfspace_intersection)"
    assert repr(scoring.make_psr(entropy)) == "ScoringRule('quadratic', n=3)"
