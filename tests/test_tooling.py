"""The package names the benchmark relies on must keep existing.

The `presets` workload runs every figure preset by name, from its own list.

`perfbench/tracing.py` wraps every `(module, function)` of its TRACED table by
name and replaces `cli.concurrent.futures.ProcessPoolExecutor`; a deleted or
renamed name breaks `perfbench/run.py --trace 1`.  The file is loaded by path
(it imports only the standard library) and never installed, so the package
stays unpatched for the other tests.
"""

import ast
import importlib
import importlib.util
import pathlib

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
