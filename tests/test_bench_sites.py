"""Every function the benchmark tracer hooks still exists under its name.

bench/tracer.py times and counts calls at the `module:Qualname` sites in
its tables; a refactor that renames or moves one of them would otherwise
surface only as an unhooked site in a benchmark run.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
