"""Checks on the package source itself."""

import ast
from collections import Counter
from pathlib import Path

import atlab

SOURCE = Path(atlab.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert, so proof obligations must raise explicitly
    found = []
    for path in sorted(SOURCE.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in atlab: {found}"


def test_no_unused_imports():
    # a name imported and never used is dead code; a module may keep one only
    # under `# noqa: F401` with a reason. __init__.py imports to re-export.
    found = []
    for path in sorted(SOURCE.glob("**/*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            marker = lines[node.lineno - 1].partition("# noqa: F401")
            if marker[1]:
                if not marker[2].strip():
                    found.append(f"{path.name}:{node.lineno} noqa without a reason")
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"unused imports in atlab: {found}"


def test_no_environment_reads():
    # budgets come from SolverOptions and CLI flags; an environment variable
    # would be a second, hidden way to set them
    found = []
    for path in sorted(SOURCE.glob("**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} from os import {a.name}"
                          for a in node.names if a.name in ("environ", "getenv")]
    assert not found, f"environment reads in atlab: {found}"


def _names(top, strings=False):
    out = set()
    for node in ast.walk(top):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _package_trees():
    # every package module but __init__.py: a re-export there is not a use
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SOURCE.glob("**/*.py")) if path.name != "__init__.py"}


def _bench_names():
    # bench/spans.py names the functions it wraps as strings, so the
    # benchmark's string constants count as names too, and so do the keyword
    # names it passes (`search_edge_cap=...`). A keyword name in package code
    # is not a read, so _names leaves them out.
    bench = sorted((Path(__file__).parents[1] / "bench").glob("*.py"))
    assert bench, "bench/*.py not found next to tests/"
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in bench]
    keywords = {node.arg for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.keyword) and node.arg}
    return keywords.union(*(_names(tree, strings=True) for tree in trees))


def test_every_module_level_definition_is_referenced():
    # a function or class that neither the package nor the benchmark names is
    # kept only for tests, whose oracles live in tests/helpers.py
    trees = _package_trees()
    bench_names = _bench_names()
    # names used by each module-level statement, keyed by (file, position)
    used = {(name, i): _names(node) for name, tree in trees.items()
            for i, node in enumerate(tree.body)}
    found = []
    for name, tree in trees.items():
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in bench_names:
                continue
            if not any(node.name in s for key, s in used.items() if key != (name, i)):
                found.append(f"{name}:{node.lineno} {node.name}")
    assert not found, f"unreferenced definitions in atlab: {found}"


def _attributes(top):
    return Counter(n.attr for n in ast.walk(top) if isinstance(n, ast.Attribute))


def test_every_method_and_property_is_referenced():
    # the same rule for the methods and properties of package classes: each is
    # reached as an attribute somewhere in the package outside its own body, or
    # named by the benchmark. Dunders and dataclass fields are not methods.
    trees = _package_trees()
    bench_names = _bench_names()
    package = sum((_attributes(tree) for tree in trees.values()), Counter())
    found = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if node.name in bench_names:
                    continue
                if package[node.name] <= _attributes(node)[node.name]:
                    found.append(f"{name}:{node.lineno} {cls.name}.{node.name}")
    assert not found, f"unreferenced methods in atlab: {found}"


def _is_record(cls):
    # a dataclass (decorated `@dataclass` or `@dataclass(...)`) or a NamedTuple
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    names = {n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
             for n in decorators + cls.bases}
    return bool(names & {"dataclass", "NamedTuple"})


def test_every_field_is_read():
    # the same rule for the fields of dataclasses and NamedTuples: each is
    # reached as an attribute somewhere in the package outside its own class
    # body, or named by the benchmark. A field only tests read is state kept
    # for them, and the work that fills it is waste.
    trees = _package_trees()
    bench_names = _bench_names()
    package = sum((_attributes(tree) for tree in trees.values()), Counter())
    found = []
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef) or not _is_record(cls):
                continue
            own = _attributes(cls)
            for node in cls.body:
                if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
                    continue
                field = node.target.id
                if field in bench_names:
                    continue
                if package[field] <= own[field]:
                    found.append(f"{name}:{node.lineno} {cls.name}.{field}")
    assert not found, f"fields no package code reads: {found}"


def test_every_option_is_set_by_a_flag_or_the_benchmark():
    # a SolverOptions field that no `atlab` flag sets and the benchmark never
    # names is set only by tests: one value is in use, so it is a constant of
    # the module that reads it. `threads` is left only for the benchmark.
    from dataclasses import fields

    from atlab.cli import _BUDGET_FLAGS

    set_by = {field for field, _, _ in _BUDGET_FLAGS.values()} | _bench_names()
    found = [f.name for f in fields(atlab.SolverOptions) if f.name not in set_by]
    assert not found, f"options no flag sets and the benchmark never names: {found}"


def _uses(trees, match):
    # (file, enclosing module-level statement, line) of every node that matches
    return [(name, top, node.lineno) for name, tree in trees.items()
            for top in tree.body for node in ast.walk(top) if match(node)]


def test_only_bracket_builds_an_at_result():
    # every AT result joins its lower terms and its certificate in one place,
    # which checks that no term exceeds the certificate level
    calls = _uses(_package_trees(),
                  lambda n: isinstance(n, ast.Call) and "ATResult" in _names(n.func))
    found = [f"{name}:{line}" for name, top, line in calls
             if (name, getattr(top, "name", None)) != ("atsolver.py", "bracket")]
    assert calls and not found, f"ATResult built outside atsolver.bracket: {found}"


GENERATORS = {"hypercube", "cycle", "path", "star", "complete", "complete_bipartite",
              "tree_from_pruefer", "cartesian_product", "corona"}


def test_only_generators_build_a_graph_unchecked():
    # graphs._built skips Graph.__init__'s checks, so only the generators
    # whose output is valid by construction may name it; a graph from a
    # document, the CLI or a caller's edge list must go through the checks
    trees = _package_trees()
    uses = _uses(trees, lambda n: "_built" in (getattr(n, "id", None), getattr(n, "attr", None)))
    found = [f"{name}:{line}" for name, top, line in uses
             if name != "graphs.py" or getattr(top, "name", None) not in GENERATORS]
    assert uses and not found, f"graphs._built used outside the generators: {found}"
    # and _built is the one place a Graph is made without __init__
    news = _uses(trees, lambda n: isinstance(n, ast.Call) and "__new__" in _names(n.func))
    found = [f"{name}:{line}" for name, top, line in news
             if (name, getattr(top, "name", None)) != ("graphs.py", "_built")]
    assert news and not found, f"__new__ called outside graphs._built: {found}"


def test_only_shared_and_run_suite_touch_the_memo():
    # one way to share a run_suite call's results: a second hand-written
    # lookup could key or clear the memo differently
    uses = _uses(_package_trees(), lambda n: "_memo" in (getattr(n, "id", None),
                                                        getattr(n, "attr", None)))
    found = [f"{name}:{line}" for name, top, line in uses
             if name != "theorems.py" or not (
                 getattr(top, "name", None) in ("_shared", "run_suite")
                 or isinstance(top, ast.AnnAssign) and top.target.id == "_memo")]
    assert uses and not found, f"theorems._memo touched outside _shared and run_suite: {found}"


def test_only_fill_and_bipartition_touch_the_kept_coloring():
    # Graph._sides keeps the 2-coloring that bipartition computes once; a
    # second reader or writer could see it unset or set it out of step
    def touches(node):
        return "_sides" in (getattr(node, "id", None), getattr(node, "attr", None))

    allowed, found = set(), []
    for name, tree in _package_trees().items():
        for top in tree.body:
            # a class's methods are scoped one by one, other statements whole
            scopes = top.body if isinstance(top, ast.ClassDef) else [top]
            for scope in scopes:
                where = (name, getattr(top, "name", None), getattr(scope, "name", None))
                for node in filter(touches, ast.walk(scope)):
                    if where in (("graphs.py", "Graph", "_fill"),
                                 ("graphs.py", "bipartition", "bipartition")):
                        allowed.add(where)
                    else:
                        found.append(f"{name}:{node.lineno}")
    assert len(allowed) == 2 and not found, f"Graph._sides touched elsewhere: {found}"


def test_only_chromatic_reads_chi_in_theorems():
    # theorems reads every chi through _chromatic, whose memo the factors'
    # exact results feed; a second caller of chromatic_number could color a
    # graph that the running call has already solved
    trees = {"theorems.py": _package_trees()["theorems.py"]}
    uses = _uses(trees, lambda n: "chromatic_number" in (getattr(n, "id", None),
                                                        getattr(n, "attr", None)))
    found = [f"{name}:{line}" for name, top, line in uses
             if getattr(top, "name", None) != "_chromatic"]
    assert uses and not found, f"chromatic_number named outside theorems._chromatic: {found}"


def test_only_corona_at_builds_a_corona_orientation_in_theorems():
    # the corona rows read their bracket off theorems._corona_rule; only
    # corona_at returns a certificate, so only it builds the orientation
    trees = {"theorems.py": _package_trees()["theorems.py"]}
    uses = _uses(trees, lambda n: "corona_orientation" in (getattr(n, "id", None),
                                                          getattr(n, "attr", None)))
    found = [f"{name}:{line}" for name, top, line in uses
             if getattr(top, "name", None) != "corona_at"]
    assert uses and not found, f"corona_orientation named outside theorems.corona_at: {found}"


def test_only_the_gated_engines_read_their_budgets():
    # each diff engine checks its own gate and raises CapacityError past it;
    # a caller that read ENUM_CAP or POLY_BUDGET ahead of the engine would
    # have to follow every change to the gate. The tally's gate is read by
    # eulerian_tally_enumerate, the tally's one entry point. The level search
    # checks search_edge_cap alone too; theorems reads it only to pick the
    # rows it cross-checks by search (the toroidal rows set it to their own
    # edge count without reading it), and SolverOptions only to refuse a
    # negative cap.
    trees = _package_trees()
    uses = _uses(trees, lambda n: isinstance(n, ast.Attribute) and n.attr == "search_edge_cap")
    readers = {(name, getattr(top, "name", None)) for name, top, _ in uses}
    allowed = {("atsolver.py", "find_at_orientation"), ("theorems.py", "_closed_form_row"),
               ("options.py", "SolverOptions")}
    assert readers == allowed, f"search_edge_cap read by {sorted(readers - allowed)} too, " \
                               f"not by {sorted(allowed - readers)}"
    # the engines' caps are module constants, each read by its engine alone
    # and named nowhere else, not even as an attribute of its module
    owners = {"ENUM_CAP": ("eulerian.py", "eulerian_tally_enumerate"),
              "POLY_BUDGET": ("eulerian.py", "eulerian_diff_poly"),
              "CHROMATIC_BLOCK_CAP": ("atsolver.py", "chromatic_number")}
    for cap, owner in owners.items():
        uses = _uses(trees, lambda n: cap in (getattr(n, "id", None), getattr(n, "attr", None))
                     and not isinstance(n.ctx, ast.Store))
        readers = {(name, getattr(top, "name", None)) for name, top, _ in uses}
        assert readers == {owner}, f"{cap} read by {sorted(readers)}"


def _imports_of(module):
    def match(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == module
        return isinstance(node, ast.Import) and any(a.name == module for a in node.names)
    return match


def test_records_are_named_tuples_but_two_dataclasses():
    # a frozen dataclass takes about eight times as long to create as a
    # NamedTuple (0.65 ms against 0.08 ms for six fields, CPython 3.11 on 2
    # CPUs), and every `import atlab` creates each record class.
    # SolverOptions stays a dataclass because it checks its fields when built
    # and in with_, which a NamedTuple's _replace would skip; ClaimReport
    # because run_suite sets millis on the report a check returned.
    # cmd_theorems names the ClaimReport fields it writes.
    trees = _package_trees()
    importers = {(name, getattr(top, "name", None))
                 for name, top, _ in _uses(trees, _imports_of("dataclasses"))}
    assert importers == {("options.py", None), ("theorems.py", None)}, (
        f"dataclasses imported by {importers}"
    )
    records = {(name, cls.name, any("dataclass" in _names(d) for d in cls.decorator_list))
               for name, tree in trees.items() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and _is_record(cls)}
    dataclasses = {(name, cls) for name, cls, is_dataclass in records if is_dataclass}
    assert dataclasses == {("options.py", "SolverOptions"), ("theorems.py", "ClaimReport")}


def test_only_max_density_imports_fractions():
    # every `import atlab` loads density; only max_density computes with Fraction
    uses = _uses(_package_trees(), _imports_of("fractions"))
    found = {(name, getattr(top, "name", None)) for name, top, _ in uses}
    assert found == {("density.py", "max_density")}, f"fractions imported by {found}"


def test_the_diff_and_document_layers_import_nothing_from_options():
    # a diff is a function of the orientation and a document of its
    # certificate, so neither layer takes SolverOptions; the engines' gates
    # are constants of eulerian
    trees = _package_trees()
    found = [f"{name}:{line}" for name, _, line in _uses(trees, _imports_of("options"))
             if name in ("eulerian.py", "construct.py", "documents.py")]
    assert not found, f"options imported by {found}"


def test_documents_import_nothing_from_construct():
    # a recipe is the word its builder returns, so the document layer needs
    # only the certificate, the orientation and the graph
    trees = {"documents.py": _package_trees()["documents.py"]}
    found = [line for _, _, line in _uses(trees, _imports_of("construct"))]
    assert not found, f"documents.py imports from construct on lines {found}"


def test_verify_has_one_verdict_channel():
    # the diff engines multiply per strongly connected component, so they
    # already prove the product law across a recipe's cut on every
    # certificate they accept; a cut check after them could only turn an
    # accepted certificate's exit code into a failure. So `atlab verify`
    # reads no vertex labels and runs no cut, and outside the modules that
    # define them (and the __init__ re-export) no module names the cut
    # check or the corona split.
    trees = _package_trees()
    cli = trees["cli.py"]
    assert "vertices" not in _attributes(cli), "cli.py reads .vertices"
    assert "one_way_cut_check" not in _names(cli, strings=True), "cli.py names one_way_cut_check"
    cut = {"one_way_cut_check", "corona_cut_sides"}
    found = {name: sorted(cut & _names(tree, strings=True)) for name, tree in trees.items()
             if name not in ("eulerian.py", "construct.py")}
    assert not any(found.values()), f"the cut named outside eulerian and construct: {found}"


def test_the_cut_check_reads_directions_alone():
    # no strongly connected component crosses a one-way cut, so the engines'
    # component product already is the cut law; one_way_cut_check looks at
    # arc directions only and tallies no side again
    tree = _package_trees()["eulerian.py"]
    (check,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "one_way_cut_check"]
    engines = {"strong_components", "tally_arcs", "eulerian_tally_enumerate", "diff_coefficient"}
    found = sorted(engines & _names(check, strings=True))
    assert not found, f"one_way_cut_check names {found}"


def test_documents_encode_labels_only_through_label_text():
    # the writer, graph_sha256 and the parser's canonical check all encode a
    # label in one typed walk; a JSONEncoder or json.dumps per label would be
    # a second encoder that checks types again, as the old writer did
    trees = {"documents.py": _package_trees()["documents.py"]}

    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)

    found = [line for _, _, line in _uses(trees, lambda n: named(n) in ("JSONEncoder", "dumps"))]
    assert not found, f"documents.py names JSONEncoder or json.dumps on lines {found}"

    # the JSON string step is named once, where it is bound, and called only
    # by _label_text, which serialize_graph calls
    def user(name):
        uses = _uses(trees, lambda n: named(n) == name)
        return {(getattr(top, "name", None), isinstance(top, ast.Assign)) for _, top, _ in uses}

    assert user("encode_basestring_ascii") == {(None, True)}
    assert user("_encode_str") == {(None, True), ("_label_text", False)}
    assert user("_label_text") == {("_label_text", False), ("serialize_graph", False)}
