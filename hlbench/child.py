"""One pass of a workload, run in a fresh interpreter by ``run.py``.

Usage: python3 hlbench/child.py WORKLOAD SEED MODE TINY SPANS_PATH

With MODE ``run`` or ``trace``, verifies every instance of the workload once,
in seed order, and prints one JSON object on stdout: the timings, the
failures, the report digest and, when MODE is ``trace``, the per-layer
figures taken from the span tree.  A traced pass also writes its spans to
SPANS_PATH.  With MODE ``setup`` it stops where the first verify() would
start and prints that time and one reference block timed right after it, a
set-up sample.

Between instances, at least every REF_EVERY_S seconds and once at the end,
the pass times a fixed reference block (reference_block()) that uses no
hltorus code.  run.py divides the pass's times by the block's mean time, so
that the speed of the shared host, which drifts by a third over minutes,
cancels out of the figures.  The blocks are not part of any timing.
"""

import json
import resource
import sys
import time
from array import array

import workloads

# Layers whose calls the traced pass records, as (span name, module, attribute,
# class or None).  A function is wrapped in every loaded hltorus module that
# binds it, so calls through ``from .x import f`` names are seen too.
LAYERS = (
    ("identities.verify", "hltorus.identities", "verify", None),
    ("hall_littlewood.hl_full", "hltorus.hall_littlewood", "hl_full", None),
    ("densities.ct_integrate", "hltorus.densities", "ct_integrate", None),
    ("densities._expansion", "hltorus.densities", "_expansion", None),
    ("laurent.mul", "hltorus.laurent", "__mul__", "LaurentPoly"),
    ("series.mul", "hltorus.series", "__mul__", "ParamSeries"),
)
NAMES = tuple(layer[0] for layer in LAYERS)
CODE = {name: i for i, name in enumerate(NAMES)}

# Layers whose result may come from a cache, with the size of a result.  A
# call counts as a hit when it returns the very object an earlier call
# returned since caches were cleared.
CACHED = {
    "hall_littlewood.hl_full": lambda poly: len(poly.terms),
    "densities._expansion": len,
}


class Tracer:
    """Spans (name, start, end, parent, instance) kept in flat arrays; a
    span's id is its index."""

    def __init__(self):
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.inst = array("i")
        self.stack = [-1]
        self.current = [-1]
        self.seen = {name: {} for name in CACHED}
        self.hits = dict.fromkeys(CACHED, 0)
        self.built_size = dict.fromkeys(CACHED, 0)
        self.mul_out_terms = 0

    def new_epoch(self):
        """Caches were cleared: later results can no longer be hits."""
        for seen in self.seen.values():
            seen.clear()

    def _on_cached(self, name):
        seen = self.seen[name]
        hits = self.hits
        sizes = self.built_size
        size = CACHED[name]

        def note(result):
            key = id(result)
            if key in seen:
                hits[name] += 1
            else:
                # holding the object keeps its id from being reused
                seen[key] = result
                sizes[name] += size(result)

        return note

    def _on_laurent_mul(self, result):
        if result is not NotImplemented:
            self.mul_out_terms += len(result.terms)

    def wrap(self, name, fn):
        code = CODE[name]
        names, starts, ends = self.name, self.start, self.end
        parents, insts = self.parent, self.inst
        stack, current = self.stack, self.current
        clock = time.perf_counter
        if name in CACHED:
            after = self._on_cached(name)
        elif name == "laurent.mul":
            after = self._on_laurent_mul
        else:
            after = None

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(code)
            parents.append(stack[-1])
            insts.append(current[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(result)
            return result

        return traced

    def install(self):
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "hltorus" or name.startswith("hltorus.")
        ]
        for name, modname, attr, clsname in LAYERS:
            owner = sys.modules.get(modname)
            if clsname is not None:
                owner = getattr(owner, clsname, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                raise SystemExit(
                    "hlbench: cannot trace %s: %s%s.%s is gone"
                    % (name, modname, "." + clsname if clsname else "", attr)
                )
            traced = self.wrap(name, fn)
            if clsname is not None:
                setattr(owner, attr, traced)
                # ``__rmul__ = __mul__`` binds the same function twice
                if owner.__dict__.get("__rmul__") is fn:
                    owner.__rmul__ = traced
                continue
            for mod in modules:
                if getattr(mod, attr, None) is fn:
                    setattr(mod, attr, traced)

    def layer_figures(self):
        """Calls, self seconds and counters per layer, from the span tree."""
        n = len(self.name)
        starts, ends, parents, names = self.start, self.end, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(NAMES)
        calls = [0] * len(NAMES)
        for i in range(n):
            c = names[i]
            calls[c] += 1
            self_s[c] += ends[i] - starts[i] - child[i]
        return {
            "calls": dict(zip(NAMES, calls)),
            "self_s": dict(zip(NAMES, self_s)),
            "hits": dict(self.hits),
            "built_size": dict(self.built_size),
            "mul_out_terms": self.mul_out_terms,
        }

    def write(self, path, origin):
        """Spans as tab-separated lines, times in seconds from ``origin``."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\tinstance\n")
            for i in range(len(self.name)):
                fh.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                    % (
                        i,
                        NAMES[self.name[i]],
                        self.start[i] - origin,
                        self.end[i] - origin,
                        self.parent[i],
                        self.inst[i],
                    )
                )


# A reference block is timed when this many seconds have passed since the
# last one; with blocks of about 0.1 s that is under a tenth of a pass.
REF_EVERY_S = 1.0


def reference_block():
    """Seconds taken by a fixed amount of pure-Python work like the
    package's own: products of sparse Laurent polynomials held as dicts from
    exponent tuples to int coefficients.  It calls no hltorus code, so a
    change to the package cannot change it."""
    poly = {(i, j, (i * j) % 5): (i * 7 + j) % 11 + 1
            for i in range(-6, 7) for j in range(-6, 7)}
    left = list(poly.items())[:24]
    t0 = time.perf_counter()
    for _ in range(80):
        out = {}
        for (a0, a1, a2), ca in left:
            for (b0, b1, b2), cb in poly.items():
                e = (a0 + b0, a1 + b1, a2 + b2)
                out[e] = out.get(e, 0) + ca * cb
    return time.perf_counter() - t0


def clear_all_caches():
    """Every module-level cache of the package, via its clear_caches()."""
    for name in sorted(sys.modules):
        if name.startswith("hltorus."):
            clear = getattr(sys.modules[name], "clear_caches", None)
            if clear is not None:
                clear()


def main(argv):
    workload, seed, mode, tiny, spans_path = argv
    seed, traced, tiny = int(seed), mode == "trace", tiny == "1"

    import hltorus  # noqa: F401  (loads every module before wrapping)
    from hltorus import identities

    todo = workloads.instances(workload, seed, tiny, identities.sweep_weights)
    if mode == "setup":
        t_first = time.perf_counter()
        json.dump({"t_first": t_first, "ref_s": [reference_block()]}, sys.stdout)
        sys.stdout.write("\n")
        return
    cold = workloads.COLD[workload]
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    lines = []
    failed = []
    latencies_ms = []
    ref_s = []
    t_first = clock()
    last_ref = t_first - REF_EVERY_S
    for inst in todo:
        if clock() - last_ref >= REF_EVERY_S:
            ref_s.append(reference_block())
            last_ref = clock()
        if cold:
            clear_all_caches()
            if tracer is not None:
                tracer.new_epoch()
        if tracer is not None:
            tracer.current[0] = inst.id
        t0 = clock()
        try:
            report = identities.verify(inst.identity, **inst.kwargs)
        except Exception as exc:  # counted as failed; the pass goes on
            latencies_ms.append((clock() - t0) * 1000.0)
            failed.append([inst.id, "%s: %s" % (type(exc).__name__, exc)])
            lines.append(json.dumps(
                {"identity": inst.identity, "instance": inst.id,
                 "error": type(exc).__name__}, sort_keys=True))
            continue
        latencies_ms.append((clock() - t0) * 1000.0)
        lines.append(workloads.report_line(report))
        if report.status != inst.expected:
            failed.append([inst.id, "status %s, expected %s"
                           % (report.status, inst.expected)])
    ref_s.append(reference_block())
    wall_s = clock() - t_first - sum(ref_s)
    out = {
        "t_first": t_first,
        "wall_s": wall_s,
        "latencies_ms": latencies_ms,
        "ref_s": ref_s,
        "attempted": len(todo),
        "failed": failed,
        "digest": workloads.report_digest(lines),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_figures()
        tracer.write(spans_path, t_first)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
