"""The package names the benchmark relies on must keep existing.

The `presets` workload runs every figure preset by name, from its own list,
and `perfbench/child.py` and `run.py` call the package as `ic.<name>` and
`cli.<name>`; every such name must resolve.
A traced run of a figure, a sweep at --workers 2 and a ring must report the
layers that the benchmark's per-layer metrics read.

`perfbench/tracing.py` wraps every `(module, function)` of its TRACED table by
name and replaces `cli.concurrent.futures.ProcessPoolExecutor`; a deleted or
renamed name breaks `perfbench/run.py --trace 1`.  The file is loaded by path
(it imports only the standard library) and never installed, so the package
stays unpatched for the other tests.
"""

import argparse
import ast
import importlib
import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import impurity_chain

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    missing = []
    for mod_name, fn_name in load_tracing().TRACED:
        module = importlib.import_module(f"impurity_chain.{mod_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{mod_name}.{fn_name}")
    assert not missing, f"traced names missing from impurity_chain: {missing}"


def test_cli_reaches_the_process_pool_through_concurrent_futures():
    cli = importlib.import_module("impurity_chain.cli")
    assert callable(cli.concurrent.futures.ProcessPoolExecutor)


def test_benchmark_runs_every_figure_preset():
    # perfbench/workloads.py is read, not imported: it would import the package
    tree = ast.parse((TRACING.parent / "workloads.py").read_text())
    presets = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(target, "id", None) == "PRESETS" for target in node.targets)]
    cli = importlib.import_module("impurity_chain.cli")
    assert presets == [tuple(cli.FIGURE_PRESETS)]


def test_every_configuration_key_has_one_parser():
    # no key is accepted without a parser, and none is parsed that no command takes
    cli = importlib.import_module("impurity_chain.cli")
    subparsers = next(action for action in cli._PARSER._actions
                      if isinstance(action, argparse._SubParsersAction))
    accepted = {key for sp in subparsers.choices.values() for key in sp.get_default("keys")}
    assert accepted == set(cli._KEYS)


def package_attributes(path: pathlib.Path) -> set[tuple[str, str]]:
    """("ic" or "cli", name) of every `ic.<name>` and `cli.<name>` a benchmark
    file reads, in its code and in the code strings it runs in fresh
    interpreters (their `{key!r}` format fields read as None)."""
    trees = [ast.parse(path.read_text())]
    for node in ast.walk(trees[0]):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                trees.append(ast.parse(re.sub(r"\{\w+!r\}", "None", node.value)))
            except SyntaxError:
                pass
    return {(node.value.id, node.attr) for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("ic", "cli")}


def test_benchmark_entry_points_resolve():
    # perfbench/child.py and run.py are read, not imported, like workloads.py
    modules = {"ic": impurity_chain, "cli": importlib.import_module("impurity_chain.cli")}
    missing = []
    for name in ("child.py", "run.py"):
        used = package_attributes(TRACING.parent / name)
        assert used, f"no package attribute found in perfbench/{name}"
        missing += [f"{name}: {mod}.{attr}" for mod, attr in sorted(used)
                    if not hasattr(modules[mod], attr)]
    assert not missing, f"benchmark entry points missing from impurity_chain: {missing}"


def evaluator_or_exception(module: str, name: str) -> bool:
    if name in ("measure_columns", "QUANTITY_COLUMNS"):
        return True
    value = getattr(importlib.import_module(f"impurity_chain.{module}"), name)
    return isinstance(value, type) and issubclass(value, Exception)


def test_cli_evaluates_through_the_one_evaluator():
    # cli.py is read, not imported: of the state, measure and teleport
    # modules it may import only the evaluator, its quantity table and
    # exception classes, so every column goes through measure_columns
    tree = ast.parse((pathlib.Path(impurity_chain.__file__).parent / "cli.py").read_text())
    guarded = ("measures", "xfer", "teleport")
    names, wrong = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            wrong += [a.name for a in node.names if a.name.split(".")[-1] in guarded]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("impurity_chain.")
            for alias in node.names:
                if module in guarded:
                    names.append(alias.name)
                    if not evaluator_or_exception(module, alias.name):
                        wrong.append(f"{module}.{alias.name}")
                elif alias.name in guarded:
                    wrong.append(alias.name)
    assert "measure_columns" in names
    assert not wrong, f"cli imports more than the evaluator: {wrong}"


def test_solver_and_oracle_modules_take_no_trigonometry():
    # the kernel's dimer algebra is one angle-free eigenprojector and the
    # oracle's is a dense eigh; teleport.py keeps its input-state angles
    package = pathlib.Path(impurity_chain.__file__).parent
    banned = ("atan2", "arctan2", "cos", "sin")
    calls = []
    for name in ("model.py", "xfer.py", "oracle.py"):
        for node in ast.walk(ast.parse((package / name).read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in banned:
                    calls.append(f"{name}:{node.lineno} {called}")
    assert not calls, f"trigonometric calls in the solver or oracle: {calls}"


def test_every_open_is_utf8_or_binary():
    # config files and manifests are UTF-8 whatever the locale: an open()
    # under src/ names encoding="utf-8" or a binary mode, never the locale's
    package = pathlib.Path(impurity_chain.__file__).parent
    opens, wrong = 0, []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                opens += 1
                given = dict(zip(("file", "mode", "buffering", "encoding"), node.args),
                             **{k.arg: k.value for k in node.keywords})
                text = {k: v.value for k, v in given.items() if isinstance(v, ast.Constant)}
                if not ("b" in text.get("mode", "") or text.get("encoding") == "utf-8"):
                    wrong.append(f"{path.name}:{node.lineno}")
    assert opens and not wrong, f"open() in the locale's encoding: {wrong}"


def writer_opens(tree: ast.Module):
    """(enclosing function, line) of every os.open call, and of every open
    call whose mode is not a constant or writes, appends, creates
    exclusively or updates."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Attribute) and func.attr == "open"
                        and getattr(func.value, "id", None) == "os"):
                    found.append((function, child.lineno))
                elif getattr(func, "id", None) == "open":
                    mode = dict(zip(("file", "mode"), child.args),
                                **{k.arg: k.value for k in child.keywords}).get("mode")
                    if mode is not None and not (isinstance(mode, ast.Constant)
                                                 and not set(mode.value) & set("wax+")):
                        found.append((function, child.lineno))
            visit(child, function)

    visit(tree, None)
    return found


def test_create_is_the_one_writer_open():
    # every output file is rewritten in place by cli._create; a second
    # writer, or a truncating flag, would bring back the cut to zero on open
    package = pathlib.Path(impurity_chain.__file__).parent
    writers, truncating = [], []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        writers += [(path.name, *found) for found in writer_opens(ast.parse(text))]
        if "O_TRUNC" in text:
            truncating.append(path.name)
    assert writers and {(name, function) for name, function, _ in writers} == {
        ("cli.py", "_create")}, f"writer opens outside cli._create: {writers}"
    assert not truncating, f"O_TRUNC under src/: {truncating}"


def stdout_uses(tree: ast.Module):
    """(enclosing function, line) of every `sys.stdout` reference, and the
    line of every print call that does not name file=sys.stderr."""
    uses, prints = [], []

    def is_sys(node, name):
        return (isinstance(node, ast.Attribute) and node.attr == name
                and getattr(node.value, "id", None) == "sys")

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if is_sys(child, "stdout"):
                uses.append((function, child.lineno))
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "print":
                if not any(k.arg == "file" and is_sys(k.value, "stderr") for k in child.keywords):
                    prints.append(child.lineno)
            visit(child, function)

    visit(tree, None)
    return uses, prints


def test_cli_writes_standard_output_through_one_helper():
    # cli._stdout turns a closed or failing standard output into a
    # configuration error; a second writer, or a print to stdout, would
    # bring back the traceback
    tree = ast.parse((pathlib.Path(impurity_chain.__file__).parent / "cli.py").read_text())
    uses, prints = stdout_uses(tree)
    writes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and node.attr == "write" and isinstance(node.value, ast.Attribute)
              and node.value.attr == "stdout"]
    assert uses and {function for function, _ in uses} == {"_stdout"}, uses
    assert len(writes) == 1, f"sys.stdout.write at lines {[w.lineno for w in writes]}"
    assert not prints, f"print to standard output at lines {prints}"


# run in a fresh interpreter, because install() patches the package and
# concurrent.futures for the rest of the process
TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
src, tracing_path, outdir = sys.argv[1:]
sys.path.insert(0, src)
import impurity_chain as ic
import impurity_chain.cli as cli
spec = importlib.util.spec_from_file_location("tracing", tracing_path)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
cli.run_figure("fig3", outdir, {})
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sweep", "--set", "axis=B 0 1 5", "--set", "axis2=T 0.1 1 3",
                     "--workers", "2", "--out", outdir + "/grid.csv"])
assert code == 0, code
ic.finite_n_density_matrix(ic.ModelParams(B=0.5, T=0.3), 6)
print(json.dumps({k: v for k, (v, _) in tracing.layer_metrics(tracer, 1).items()}))
"""


def test_traced_run_reports_sweep_and_pool_layers(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(impurity_chain.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, src, str(TRACING), str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["cli.run_sweep.self_us_per_row"] > 0.0
    # the tracer still patches the pool class, and no sweep opens a pool
    assert metrics["cli.run_sweep.pool_wait_ms"] == 0.0
    assert metrics["xfer.finite_n_density_matrix.self_us"] > 0.0
    assert len(os.listdir(tmp_path)) == 2 * 6 + 2   # fig3's 6 CSVs and the grid's, with manifests


# the sweep, finder and exception names that only `impurity_chain.cli` provides
CLI_NAMES = ("ConfigError", "NotFound", "SweepConfig", "run_point", "run_sweep",
             "find_threshold_temperature", "find_critical_field")
# the enumeration oracle's names, and its scalar path's, from their own modules
ORACLE_NAMES = {"oracle": ("TooLarge", "brute_force_density_matrix", "wootters_concurrence"),
                "model": ("dimer_block", "dimer_spectrum", "boltzmann_weights")}

# sys.modules is read before any hasattr, which could import the CLI
PACKAGE_IMPORT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import impurity_chain
print(json.dumps({"loaded": [m for m in ("impurity_chain.cli", "impurity_chain.oracle")
                             if m in sys.modules],
                  "names": [n for n in sys.argv[2:] if hasattr(impurity_chain, n)]}))
"""


def test_package_does_not_reexport_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(impurity_chain.__file__)))
    oracle_names = [name for names in ORACLE_NAMES.values() for name in names]
    proc = subprocess.run([sys.executable, "-c", PACKAGE_IMPORT, src, *CLI_NAMES, *oracle_names],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["loaded"] == [], f"importing impurity_chain imports {result['loaded']}"
    assert result["names"] == [], f"impurity_chain re-exports {result['names']}"
    cli = importlib.import_module("impurity_chain.cli")
    assert all(hasattr(cli, name) for name in CLI_NAMES)
    for module, names in ORACLE_NAMES.items():
        module = importlib.import_module(f"impurity_chain.{module}")
        assert all(hasattr(module, name) for name in names)


def test_every_exported_name_resolves():
    # a deleted helper must not leave its name in an __all__ behind
    package = pathlib.Path(impurity_chain.__file__).parent
    missing = []
    for path in sorted(package.glob("*.py")):
        name = "impurity_chain" + ("" if path.stem == "__init__" else f".{path.stem}")
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"exported names missing: {missing}"
    exec("from impurity_chain import *", {})
