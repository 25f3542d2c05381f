"""Every layer and function the benchmark tracer hooks still exists.

bench/tracer.py times the modules in its LAYERS and counts calls at the
`module:Qualname` sites in its tables; a refactor that removes a layer
module, or renames or moves a site, would otherwise surface only in a
traced benchmark run.
"""

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("carlitz_bench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_hook_sites_exist():
    sites = _tracer()._SITES
    assert sites
    missing = []
    for site in sorted(sites):
        layer, qualname = site.split(":")
        obj = importlib.import_module("carlitz." + layer)
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        # the tracer keys a function by the module that defines it
        if (obj is None or getattr(obj, "__qualname__", None) != qualname
                or obj.__module__ != "carlitz." + layer):
            missing.append(site)
    assert not missing, missing


def test_cli_import_loads_every_tracer_layer():
    # a fresh interpreter: this process has imported more than the CLI does
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, carlitz.cli\n"
            "print(' '.join(m for m in sys.modules"
            " if m.startswith('carlitz.')))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    loaded = set(out.split())
    missing = [layer for layer in _tracer().LAYERS
               if "carlitz." + layer not in loaded]
    assert not missing, missing


@pytest.mark.parametrize("argv", [
    ["bc-scan", "--q", "2", "--P", "T^3+T+1"],
    ["verify", "--q", "2", "--P", "T^3+T+1", "--N", "4"]])
def test_tracer_wraps_the_lazy_layers(tmp_path, argv):
    # import carlitz registers the layers as lazy modules, and the
    # tracer's vars(mod) runs each before patching it: a traced run of a
    # command that never reads a layer still wraps every binding site,
    # hooks every counter and prints the report of the untraced run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    argv = argv + ["--format", "json"]
    trace = tmp_path / "trace.json"
    docs = [json.loads(subprocess.run(
        [sys.executable, *prefix, *argv], env=env, check=True,
        capture_output=True, text=True, timeout=300).stdout)
        for prefix in ([str(TRACER), str(trace)], ["-m", "carlitz.cli"])]
    got = json.loads(trace.read_text())
    assert (got["unpatched"], got["unhooked"]) == ([], [])
    for doc in docs:
        del doc["timing_ms"]
    assert docs[0] == docs[1]


def test_bench_dual_check_passes():
    # bench/run.py counts a failed hr_dual_check against its run: its own
    # DUAL_CHECK program, read from the file, must report ok
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    code = next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["DUAL_CHECK"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code, "3", "T^3+2*T+1"],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert json.loads(out)["ok"]
