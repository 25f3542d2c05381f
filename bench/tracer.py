"""Run one carlitz CLI invocation with per-layer tracing.

    PYTHONPATH=src python3 bench/tracer.py TRACE.json <carlitz arguments...>

Every function and method defined in a ``carlitz`` module is replaced by a
wrapper, at every binding site: module globals (``from .x import f``
copies included) and class dictionaries.  The wrappers keep, per thread:

* self time per layer (module): the wall time spent while the innermost
  active carlitz frame belongs to that module.  Time in code outside
  ``carlitz`` (numpy, builtins) counts to the calling layer, and time a
  thread spends blocked in ``Condition.wait`` or ``Thread.join`` counts
  to no layer, so a thread waiting on an executor future adds nothing;
* counters at the layer entry points named in ``CALLS``, ``TIMED``,
  ``BUILT``, ``RAISES`` and ``BYTES``.  Call counts and inclusive times
  only count entries not nested in an active entry of the same counter,
  so recursion inside one operation does not inflate them.

State is per thread, so the tracer sees work done in executor threads as
well as in the main thread.  After the CLI returns, the merged numbers are
written to TRACE.json and the CLI's exit status is passed on.
"""

import functools
import inspect
import json
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = ("fields", "polynomials", "laurent", "padics", "core",
          "cyclotomic", "lvalues", "equivariant", "special_points", "cli")

# non-recursive entries of an operation
CALLS = {
    "fields:FiniteField.add": "fields.add.calls",
    "fields:FiniteField.mul": "fields.mul.calls",
    "polynomials:Poly.__mul__": "polynomials.mul.calls",
    "polynomials:Poly.__divmod__": "polynomials.divmod.calls",
    "polynomials:monic_irreducibles": "polynomials.monic_irreducibles.calls",
    "laurent:LaurentSeries.__mul__": "laurent.mul.calls",
    "laurent:LaurentSeries.inv": "laurent.inv.calls",
    "special_points:recognize_integral": "special_points.recognize.attempts",
}
# inclusive wall time of non-recursive entries
TIMED = {
    "core:exp_eval": "core.exp_eval.s",
    "core:padic_exp": "core.padic_explog.s",
    "core:padic_log": "core.padic_explog.s",
    "core:bc_stream_mod_P": "core.bc_stream.s",
    "lvalues:ClassSumTable.__init__": "lvalues.class_table.s",
    "lvalues:PadicClassSumTable.__init__": "lvalues.padic_table.s",
    "lvalues:euler_product": "lvalues.euler_product.s",
    "special_points:verify_cnf": "suite.cnf.s",
    "special_points:verify_congruence": "suite.cong.s",
    "cli:_suite_anderson": "suite.anderson.s",
    "cli:_suite_b1": "suite.b1.s",
    "cli:_suite_euler": "suite.euler.s",
    "cli:_suite_charpoly": "suite.charpoly.s",
    "cli:_suite_padic_explog": "suite.padic-explog.s",
    "cli:render": "cli.render.s",
}
# constructors: <prefix>.built counts objects
BUILT = {
    "lvalues:ClassSumTable.__init__": "lvalues.class_table",
    "lvalues:PadicClassSumTable.__init__": "lvalues.padic_table",
    "cyclotomic:InftyEmbedding.__init__": "cyclotomic.infty_embedding",
}
# constructors whose distinct arguments (the objects that had to be built)
# are counted as <prefix>.distinct
DISTINCT = ("lvalues.class_table", "lvalues.padic_table")
# calls ending in ValueError; verify_anderson retries at a larger depth
RAISES = {
    "special_points:recognize_integral": "special_points.recognize.retries",
}
# encoded size of the returned text
BYTES = {
    "cli:render": "cli.report_bytes",
}

_SITES = set(CALLS) | set(TIMED) | set(BUILT) | set(RAISES) | set(BYTES)

_clock = time.perf_counter
_registry_lock = threading.Lock()
_registry = []  # the _State of every thread seen


class _State:
    __slots__ = ("layer", "t", "self_s", "counts", "depth", "keys")

    def __init__(self):
        self.layer = None
        self.t = _clock()
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.depth = defaultdict(int)
        self.keys = defaultdict(set)
        with _registry_lock:
            _registry.append(self)


class _ThreadLocal(threading.local):
    # one attribute lookup on the thread-local, the rest on __slots__
    def __init__(self):
        self.s = _State()


_tls = _ThreadLocal()


def _wrap_plain(fn, layer):
    """Account the call's time to `layer` (None: to no layer)."""
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(fn, layer)

    @functools.wraps(fn)
    def w(*a, **k):
        st = _tls.s
        prev = st.layer
        if prev is layer:
            return fn(*a, **k)
        acc = st.self_s
        now = _clock()
        acc[prev] += now - st.t
        st.layer, st.t = layer, now
        try:
            return fn(*a, **k)
        finally:
            now = _clock()
            acc[layer] += now - st.t
            st.layer, st.t = prev, now
    return w


def _wrap_generator(fn, layer):
    """Like _wrap_plain, around each resumption of the generator."""
    @functools.wraps(fn)
    def w(*a, **k):
        gen = fn(*a, **k)
        st = _tls.s
        while True:
            prev = st.layer
            acc = st.self_s
            now = _clock()
            acc[prev] += now - st.t
            st.layer, st.t = layer, now
            try:
                item = next(gen)
            except StopIteration as stop:
                return stop.value
            finally:
                now = _clock()
                acc[layer] += now - st.t
                st.layer, st.t = prev, now
            yield item
    return w


def _arg_key(v):
    coeffs = getattr(v, "coeffs", None)
    return tuple(coeffs) if coeffs is not None else v


def _wrap_hooked(fn, layer, site):
    """_wrap_plain plus the counters registered for `site`."""
    calls, timed = CALLS.get(site), TIMED.get(site)
    key = timed or calls or site
    built, raises, nbytes = BUILT.get(site), RAISES.get(site), BYTES.get(site)
    distinct = built in DISTINCT

    if (calls and not (timed or built or raises or nbytes)
            and not inspect.isgeneratorfunction(fn)):
        # the hot path (field and polynomial arithmetic): _wrap_plain and
        # the call count in one frame
        @functools.wraps(fn)
        def count_only(*a, **k):
            st = _tls.s
            depth = st.depth
            d = depth[key]
            if not d:
                st.counts[calls] += 1
            depth[key] = d + 1
            prev = st.layer
            try:
                if prev is layer:
                    return fn(*a, **k)
                acc = st.self_s
                now = _clock()
                acc[prev] += now - st.t
                st.layer, st.t = layer, now
                try:
                    return fn(*a, **k)
                finally:
                    now = _clock()
                    acc[layer] += now - st.t
                    st.layer, st.t = prev, now
            finally:
                depth[key] = d
        return count_only

    inner = _wrap_plain(fn, layer)

    @functools.wraps(fn)
    def w(*a, **k):
        st = _tls.s
        outer = st.depth[key] == 0
        counts = st.counts
        if outer and calls:
            counts[calls] += 1
        if built:
            counts[built + ".built"] += 1
        if distinct:
            st.keys[built].add(tuple(_arg_key(v) for v in a[1:])
                               + tuple(sorted(k.items())))
        st.depth[key] += 1
        t0 = _clock()
        try:
            out = inner(*a, **k)
        except ValueError:
            if raises:
                counts[raises] += 1
            raise
        finally:
            st.depth[key] -= 1
            if outer and timed:
                counts[timed] += _clock() - t0
        if nbytes:
            counts[nbytes] += len(out.encode())
        return out
    return w


_CACHE_TYPE = type(functools.cache(lambda: None))


def _is_wrappable(v):
    return isinstance(v, (types.FunctionType, _CACHE_TYPE))


class Installer:
    """Replaces carlitz functions with tracing wrappers, one per original."""

    def __init__(self):
        self.memo = {}
        self.modules = {}
        self.hooked = set()

    def wrap(self, fn, layer, qualname):
        if getattr(fn, "_traced", False):
            return fn
        if id(fn) not in self.memo:
            site = "%s:%s" % (layer, qualname)
            if site in _SITES:
                self.hooked.add(site)
                w = _wrap_hooked(fn, layer, site)
            else:
                w = _wrap_plain(fn, layer)
            w._traced = True
            # keep fn alive so its id is not reused
            self.memo[id(fn)] = (w, fn)
        return self.memo[id(fn)][0]

    def install(self):
        import carlitz
        import carlitz.cli  # noqa: F401  (imports every layer)
        for layer in LAYERS:
            self.modules[layer] = sys.modules["carlitz." + layer]
        by_name = {m.__name__: layer for layer, m in self.modules.items()}
        for layer, mod in self.modules.items():
            for v in list(vars(mod).values()):
                if isinstance(v, type) and v.__module__ == mod.__name__:
                    self._patch_class(v, layer)
        for mod in list(self.modules.values()) + [carlitz]:
            for name, v in list(vars(mod).items()):
                if _is_wrappable(v) and v.__module__ in by_name:
                    setattr(mod, name, self.wrap(v, by_name[v.__module__],
                                                 v.__qualname__))
        threading.Condition.wait = _wrap_plain(threading.Condition.wait, None)
        threading.Thread.join = _wrap_plain(threading.Thread.join, None)
        return self

    def _patch_class(self, cls, layer):
        for name, v in list(vars(cls).items()):
            qual = "%s.%s" % (cls.__name__, name)
            if isinstance(v, types.FunctionType):
                setattr(cls, name, self.wrap(v, layer, qual))
            elif isinstance(v, (staticmethod, classmethod)):
                setattr(cls, name, type(v)(self.wrap(v.__func__, layer, qual)))
            elif isinstance(v, property):
                setattr(cls, name, property(
                    *(self.wrap(f, layer, qual) if f else None
                      for f in (v.fget, v.fset, v.fdel)), v.__doc__))

    def unpatched(self):
        """Binding sites that still hold an unwrapped carlitz function."""
        names = {m.__name__ for m in self.modules.values()}
        out = []
        for layer, mod in self.modules.items():
            for name, v in vars(mod).items():
                if isinstance(v, type) and v.__module__ in names:
                    for attr, m in vars(v).items():
                        f = getattr(m, "__func__", getattr(m, "fget", m))
                        if (isinstance(f, types.FunctionType)
                                and not getattr(f, "_traced", False)):
                            out.append("%s.%s.%s" % (layer, name, attr))
                elif (_is_wrappable(v) and v.__module__ in names
                      and not getattr(v, "_traced", False)):
                    out.append("%s.%s" % (layer, name))
        return out


def collect(installer):
    self_s = defaultdict(float)
    counts = defaultdict(float)
    keys = defaultdict(set)
    with _registry_lock:
        for st in _registry:
            for layer, v in st.self_s.items():
                if layer is not None:
                    self_s[layer] += v
            for name, v in st.counts.items():
                counts[name] += v
            for name, v in st.keys.items():
                keys[name] |= v
    for prefix, ks in keys.items():
        counts[prefix + ".distinct"] = len(ks)
    return {"self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
            "counts": dict(counts),
            "unpatched": installer.unpatched(),
            "unhooked": sorted(_SITES - installer.hooked)}


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: tracer.py TRACE.json <carlitz arguments...>")
    out_path, cli_args = argv[0], argv[1:]
    installer = Installer().install()
    import carlitz.cli
    try:
        status = carlitz.cli.main(cli_args)
    finally:
        with open(out_path, "w") as fh:
            json.dump(collect(installer), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
