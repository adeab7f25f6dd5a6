"""Package surface: the public export list stays in step with the modules,
no module of the package or of the tests imports a name it never reads, a
module of the package imports inside a function only to break a cycle and
imports no other module's private name, and only flux_model asks what a
freeze hook can do, only solver asks what kind a datum is, only
solve_interface builds a Riemann solution, only run builds a Scheme, only
the window rule and an explicit window make a mesh, only the window rules
and steady build an envelope (run() only reports it), and only the CLI's
recorder touches the output directory."""

import ast
import inspect
from collections import Counter
from pathlib import Path

import hetflux


def test_every_export_resolves_once():
    counts = Counter(hetflux.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in hetflux.__all__ if not hasattr(hetflux, name)] == []
    # Model-only setup lives on the model (FluxModel.curve), not in signatures.
    callables = {}
    for name in hetflux.__all__:
        obj = getattr(hetflux, name)
        if inspect.isclass(obj):
            if issubclass(obj, Exception):
                continue
            for attr, raw in vars(obj).items():
                if inspect.isfunction(raw) or isinstance(raw, classmethod):
                    callables[f"{name}.{attr}"] = getattr(obj, attr)
        if callable(obj):
            callables[name] = obj
    takes_curve = [name for name, fn in callables.items()
                   if "curve" in inspect.signature(fn).parameters]
    assert takes_curve == []


def _unused_imports(source: str) -> list[str]:
    """Names a module imports (outside __future__) but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_an_unused_name():
    # __init__.py re-exports by import, so it is the one module exempt.
    src = Path(hetflux.__file__).parent
    paths = [path for path in sorted(src.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    unused = {
        f"{path.parent.name}/{path.name}": names
        for path in paths
        if (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_no_module_imports_another_modules_private_name():
    # A name with a leading underscore belongs to its module: a caller that
    # needs it gets a public name, by import or as module.attribute.
    src = Path(hetflux.__file__).parent
    modules = {path.stem for path in src.glob("*.py")}
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                 for alias in node.names if alias.name in modules}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").split(".")[0] == "hetflux"):
                found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in bound and node.attr.startswith("_")):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert found == []


def test_function_level_imports_only_break_a_module_cycle():
    # No module cycle forces one today, so every import sits at the top.
    src = Path(hetflux.__file__).parent
    found = {
        f"{path.stem}.{fn.name}"
        for path in sorted(src.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(fn))
    }
    assert found == set()


def test_only_flux_model_asks_what_an_object_offers():
    # frozen_flux completes every freeze hook, so no other module needs a
    # hasattr fork on what a frozen flux (or anything else) can do, nor a
    # getattr with a default for a part of the hook.
    src = Path(hetflux.__file__).parent
    parts = {"du", "at", "alpha", "inverse", "du_inverse"}

    def asks(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            return False
        if node.func.id == "hasattr":
            return True
        return (node.func.id == "getattr" and len(node.args) == 3
                and isinstance(node.args[1], ast.Constant) and node.args[1].value in parts)

    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py")) if path.name != "flux_model.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if asks(node)
    ]
    assert calls == []
    flux_model = ast.parse((src / "flux_model.py").read_text(encoding="utf-8"))
    assert {node.args[1].value for node in ast.walk(flux_model) if asks(node)
            and node.func.id == "getattr"} == parts


def test_root_solves_run_only_in_the_generic_hook_parts():
    # frozen_flux completes a freeze hook with root solves for the parts it
    # lacks, so every other place takes its critical points and inverses
    # from the frozen flux: one solve site per generic part.
    src = Path(hetflux.__file__).parent
    sites = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            sites |= {f"{path.stem}.{getattr(top, 'name', '')}" for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func).split(".")[-1] == "solve_increasing"}
    assert sites == {"flux_model._completed", "flux_model._branch_solve"}


def test_only_flux_model_imports_the_root_solver():
    # Every root solve is a part of a frozen flux, so one module imports the
    # solver; a caller batches its problems into that part's one call.
    src = Path(hetflux.__file__).parent
    importers = {
        path.stem
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module in ("rootfind", "hetflux.rootfind")
        and any(alias.name == "solve_increasing" for alias in node.names)
    }
    assert importers == {"flux_model"}


def test_only_solve_interface_builds_a_riemann_solution():
    # A one-flux problem is the interface problem with f_l = f_r, so the
    # Riemann construction lives in riemann.solve_interface alone.
    src = Path(hetflux.__file__).parent
    builders = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for fn in ([top] if not isinstance(top, ast.ClassDef) else top.body):
                builders |= {f"{path.stem}.{getattr(fn, 'name', '')}" for node in ast.walk(fn)
                             if isinstance(node, ast.Call)
                             and ast.unparse(node.func).split(".")[-1] == "RiemannSolution"}
    assert builders == {"riemann.solve_interface"}


def test_only_run_builds_a_scheme():
    # The edge fluxes of any state come from the tables the model keeps for
    # a mesh (flux_model.MeshTables), so only the march builds a Scheme.
    src = Path(hetflux.__file__).parent
    builders = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for fn in ([top] if not isinstance(top, ast.ClassDef) else top.body):
                builders |= {f"{path.stem}.{getattr(fn, 'name', '')}" for node in ast.walk(fn)
                             if isinstance(node, ast.Call)
                             and ast.unparse(node.func).split(".")[-1] == "Scheme"}
    assert builders == {"solver.run"}


def test_only_the_window_rule_and_an_explicit_window_make_a_mesh():
    # solver.cone_mesh sizes every automatic mesh, so Mesh.make is called
    # there and where the config gives the window itself, nowhere else.
    src = Path(hetflux.__file__).parent
    makers = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            guards = {id(call): ast.unparse(branch.test) for branch in ast.walk(top)
                      if isinstance(branch, ast.If) for node in branch.body
                      for call in ast.walk(node)}
            makers |= {(f"{path.stem}.{getattr(top, 'name', '')}", guards.get(id(node)))
                       for node in ast.walk(top) if isinstance(node, ast.Call)
                       and ast.unparse(node.func).split(".")[-2:] == ["Mesh", "make"]}
    assert makers == {("solver.cone_mesh", None),
                      ("cli._build_mesh", "mcfg['x_min'] is not None")}


def test_only_the_window_rules_and_steady_build_an_envelope_and_run_only_reports_it():
    # run() steps on the bracket and hands its observers the bracket's
    # range; it builds the envelope only for RunResult.envelope. The
    # envelope's L sizes the automatic windows, and steady writes its states.
    src = Path(hetflux.__file__).parent
    builders, run_fn = Counter(), None
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            name = f"{path.stem}.{getattr(top, 'name', '')}"
            run_fn = top if name == "solver.run" else run_fn
            builders.update(name for node in ast.walk(top) if isinstance(node, ast.Call)
                            and ast.unparse(node.func).split(".")[-1] == "envelope")
    assert builders == {"solver.run": 1, "cli._build_mesh": 1, "cli.cmd_steady": 1,
                        "diagnostics.convergence_study": 1}
    built = {target.id for node in ast.walk(run_fn) if isinstance(node, ast.Assign)
             and ast.unparse(node.value).startswith("envelope(") for target in node.targets}
    reads = [node for node in ast.walk(run_fn) if isinstance(node, ast.Name)
             and node.id in built and isinstance(node.ctx, ast.Load)]
    uses = [(ast.unparse(call.func), kw.arg) for call in ast.walk(run_fn)
            if isinstance(call, ast.Call) for kw in call.keywords if kw.value in reads]
    assert len(built) == len(reads) == 1 and uses == [("RunResult", "envelope")]


def test_only_the_solver_asks_what_kind_a_datum_is():
    # A datum carries its support and map (see solver), so no other module
    # switches on its type; the CLI flips data with model.to_internal and
    # reads the orientation only to swap the steady branch. Its range is that
    # of its projected cells: no kind has bounds, no module reads them and
    # convergence_study takes none.
    src = Path(hetflux.__file__).parent
    kinds = {"GridState", "PiecewiseConstantDatum", "SmoothDatum"}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    asks = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items() if name != "solver.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance"
        and kinds & {n.id for n in ast.walk(node.args[-1]) if isinstance(n, ast.Name)}
    ]
    assert asks == []
    assert [kind for kind in sorted(kinds) if hasattr(getattr(hetflux.solver, kind), "bounds")] == []
    assert [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "bounds"] == []
    assert "datum_bounds" not in inspect.signature(hetflux.convergence_study).parameters
    cli = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(cli)
             if isinstance(node, ast.Attribute) and node.attr == "orientation"]
    assert len(reads) == 1


def test_only_the_cli_recorder_touches_the_output_directory():
    # cli._Outputs resolves the output root, makes the directory and writes
    # every file, so the manifest it writes lists all of them.
    tree = ast.parse((Path(hetflux.__file__).parent / "cli.py").read_text(encoding="utf-8"))

    def touches(node):
        """What of the output directory node touches, or None."""
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("open", "os.makedirs"):
            return ast.unparse(node.func)
        if (isinstance(node, ast.Name) and node.id == "ENV_OUTPUT_ROOT"
                and isinstance(node.ctx, ast.Load)):
            return node.id
        return None

    recorder = {id(node) for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == "_Outputs"
                for node in ast.walk(cls)}
    found = [(what, node.lineno, id(node) in recorder)
             for node in ast.walk(tree) if (what := touches(node))]
    assert {what for what, _, inside in found if inside} == {
        "open", "os.makedirs", "ENV_OUTPUT_ROOT"}
    assert [(what, line) for what, line, inside in found if not inside] == []


def test_the_per_step_paths_call_no_numpy_wrapper():
    # ndarray.min/max, np.argmax and np.clip run through numpy's Python
    # wrappers, and a ... subscript through the general indexer: a per-step
    # path takes the ufunc methods (np.minimum.reduce), ndarray.argmax and
    # plain slices instead. Checked with the module's functions and the
    # class's methods it calls by name, as those run on every step too.
    src = Path(hetflux.__file__).parent
    wrappers = {"np.argmax", "np.clip"}

    def misuses(node):
        if isinstance(node, ast.Subscript) and any(
                isinstance(n, ast.Constant) and n.value is Ellipsis for n in ast.walk(node.slice)):
            return ast.unparse(node)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
                node.func.attr in ("min", "max") or ast.unparse(node.func) in wrappers):
            return ast.unparse(node.func)
        return None

    found = []
    for module, cls, method in (("solver", "Scheme", "step_arrays"),
                                ("diagnostics", "EntropyCheck", "step")):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
        owner = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls)
        methods = {fn.name: fn for fn in owner.body if isinstance(fn, ast.FunctionDef)}
        todo, seen = [methods[method]], set()
        while todo:
            fn = todo.pop()
            if fn.name in seen:
                continue
            seen.add(fn.name)
            for node in ast.walk(fn):
                if (what := misuses(node)):
                    found.append(f"{module}.{fn.name}: {what}")
                if isinstance(node, ast.Call):
                    name = ast.unparse(node.func)
                    if name in functions:
                        todo.append(functions[name])
                    elif name.startswith("self.") and name[5:] in methods:
                        todo.append(methods[name[5:]])
    assert found == []
