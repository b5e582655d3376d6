"""The package names the benchmark relies on must keep existing.

The `presets` workload runs every figure preset by name, from its own list,
and `perfbench/child.py` and `run.py` call the package as `ic.<name>` and
`cli.<name>`; every such name must resolve.
A traced run of a figure, a pooled sweep and a ring must report the layers
that the benchmark's per-layer metrics read.

`perfbench/tracing.py` wraps every `(module, function)` of its TRACED table by
name and replaces `cli.concurrent.futures.ProcessPoolExecutor`; a deleted or
renamed name breaks `perfbench/run.py --trace 1`.  The file is loaded by path
(it imports only the standard library) and never installed, so the package
stays unpatched for the other tests.
"""

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
    assert metrics["cli.run_sweep.pool_wait_ms"] > 0.0
    assert metrics["xfer.finite_n_density_matrix.self_us"] > 0.0
    assert len(os.listdir(tmp_path)) == 2 * 6 + 2   # fig3's 6 CSVs and the grid's, with manifests
