"""Command line front end: verify single instances, sweep grids, list.

Exit codes: 0 when every instance matched or vanished as predicted, 1 when
a mismatch was found, 2 for usage errors (among them an --m, --lambda or
--mu that the identity does not take, and an HLTORUS_MAX_MIB or
HLTORUS_MAX_TERMS that is set but not a positive integer), 3 when a
resource ceiling was hit, 4 for an internal error (incompatible objects
combined inside the package, an output that cannot be written, or any
other unexpected exception), which says nothing about the identity.  JSON
output is one record per line with sorted keys; identical inputs produce
byte-identical output (timing is only included on request).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .densities import env_ceiling
from .errors import DomainError, ResourceLimitError
from .identities import REGISTRY, sweep_weights, verify

USAGE_EXIT = 2
RESOURCE_EXIT = 3
INTERNAL_EXIT = 4


def _apply_memory_ceiling():
    """Cap the address space at HLTORUS_MAX_MIB; whether a ceiling was set.

    A ceiling the process cannot apply, above its hard limit or too large
    for the platform, is a usage error.
    """
    mib = env_ceiling("HLTORUS_MAX_MIB")
    if mib is None:
        return False
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return False
    limit = mib * 1024 * 1024
    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (OverflowError, ValueError) as exc:
        raise DomainError("HLTORUS_MAX_MIB=%d cannot be applied: %s" % (mib, exc))
    # an allocation failing under RLIMIT_AS can kill CPython by SIGSEGV, about
    # twice as often with the cyclic collector on; an instance makes no cycles
    gc.disable()
    return True


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hltorus",
        description="exact verification of Hall-Littlewood torus integral identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="print the identity catalog")
    lst.add_argument("--json", action="store_true", help="machine-readable output")

    def common(p):
        p.add_argument("--identity", required=True, help="identity name (see list)")
        p.add_argument("--n", type=int, required=True, help="rank parameter n")
        p.add_argument("--m", type=int, default=None, help="second rank parameter")
        p.add_argument("--order", type=int, default=12, help="truncation order D")
        p.add_argument("--json", action="store_true", help="one JSON record per line")
        p.add_argument(
            "--timings", action="store_true", help="include wall time in JSON records"
        )

    ver = sub.add_parser("verify", help="verify one identity instance")
    common(ver)
    ver.add_argument("--lambda", dest="weight", default=None,
                     help="comma-separated weight, e.g. 2,1,0")
    ver.add_argument("--mu", default=None, help="second partition where required")

    swp = sub.add_parser("sweep", help="verify a grid of weights")
    common(swp)
    swp.add_argument("--max-weight", type=int, default=4,
                     help="largest |weight| in the grid")
    swp.add_argument("--max-parts", type=int, default=None,
                     help="cap on individual part size")
    return parser


def _parse_weight(defn, text):
    if text is None:
        return None
    try:
        entries = tuple(int(x) for x in text.split(",")) if text.strip() else ()
    except ValueError:
        raise DomainError("weight %r is not a comma-separated list of integers" % text) from None
    if not defn.allows_negative and any(e < 0 for e in entries):
        raise DomainError(
            "identity %r takes a partition; negative entries are only "
            "accepted by the dominant-weight identities" % defn.name
        )
    return entries


def _emit(reports, as_json, timings, out):
    worst = 0
    for rep in reports:
        if as_json:
            out.write(json.dumps(rep.to_json_obj(include_timing=timings),
                                 sort_keys=True, separators=(",", ":")))
            out.write("\n")
        else:
            out.write(rep.text_line() + "\n")
        if rep.status == "mismatch":
            worst = max(worst, 1)
        elif rep.status == "resource-limit" or rep.achieved_order < rep.order:
            worst = max(worst, RESOURCE_EXIT)
    if not as_json:
        counts = {}
        for rep in reports:
            counts[rep.status] = counts.get(rep.status, 0) + 1
        summary = ", ".join("%d %s" % (v, k) for k, v in sorted(counts.items()))
        out.write("-- %d instance(s): %s\n" % (len(reports), summary))
    return worst


def _cmd_list(args, out):
    for name in sorted(REGISTRY):
        defn = REGISTRY[name]
        if args.json:
            out.write(json.dumps({
                "name": defn.name,
                "description": defn.description,
                "weight_shape": defn.weight_shape,
                "parameters": list(defn.params),
                "needs_m": defn.needs_m,
                "needs_mu": defn.needs_mu,
                "negative_weights": defn.allows_negative,
            }, sort_keys=True, separators=(",", ":")))
            out.write("\n")
        else:
            extras = []
            if defn.params:
                extras.append("parameters: " + ",".join(defn.params))
            if defn.needs_m:
                extras.append("needs --m")
            suffix = (" [%s]" % "; ".join(extras)) if extras else ""
            out.write("%-20s %s | weight: %s%s\n"
                      % (defn.name, defn.description, defn.weight_shape, suffix))
    return 0


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code else 0
    try:
        # both ceiling variables are checked before either applies; unset or
        # empty leaves the default: no memory ceiling, 4000000 terms
        env_ceiling("HLTORUS_MAX_TERMS")
        ceiling = _apply_memory_ceiling()
    except DomainError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_EXIT
    if args.command == "list":
        return _write(out, _cmd_list, args, out)

    defn = REGISTRY.get(args.identity)
    if defn is None:
        sys.stderr.write("unknown identity %r; try the list command\n" % args.identity)
        return USAGE_EXIT

    try:
        if args.command == "verify":
            instances = [dict(weight=_parse_weight(defn, args.weight),
                              mu=_parse_weight(defn, args.mu))]
        else:
            grid = sweep_weights(args.identity, args.n, args.m,
                                 max_weight=args.max_weight,
                                 max_parts=args.max_parts)
            if defn.needs_mu:
                # pair sweeps run over both entries of the grid
                instances = [dict(weight=w.parts, mu=mu.parts) for w in grid for mu in grid]
            else:
                instances = [dict(weight=None if w is None else w.parts) for w in grid]
        reports = [verify(name=args.identity, n=args.n, m=args.m, order=args.order, **kw)
                   for kw in instances]
    except DomainError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return USAGE_EXIT
    except ResourceLimitError as exc:
        sys.stderr.write("resource limit: %s\n" % exc)
        return RESOURCE_EXIT
    except Exception as exc:
        # free the failed computation's frames, and the tables they hold,
        # first: under a memory ceiling the report below needs room too
        cause = exc
        while cause is not None:
            cause.__traceback__ = None
            cause = cause.__context__
        # an allocation that fails under the ceiling can surface as a
        # SystemError ("error return without exception set") instead of a
        # MemoryError; without a ceiling a SystemError is a crash
        if isinstance(exc, MemoryError) or (ceiling and isinstance(exc, SystemError)):
            sys.stderr.write("memory ceiling exceeded\n")
            return RESOURCE_EXIT
        # a crash says nothing about the identity, so it must not read as
        # exit 1 ("mismatch found")
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return INTERNAL_EXIT
    return _write(out, _emit, reports, args.json, args.timings, out)


def _write(out, fn, *args):
    """fn(*args), then flush ``out``; an output that cannot be written gives exit 4.

    A reader that went away (``hltorus sweep ... | head -1``) or a full
    disk says nothing about the identity, so it must not read as exit 1.
    The descriptor under ``out``, if it has one, is pointed at os.devnull,
    so that the interpreter's own last flush does not raise a second time.
    """
    try:
        code = fn(*args)
        out.flush()
    except OSError as exc:
        try:
            fd = out.fileno()
        except (AttributeError, OSError, ValueError):
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        sys.stderr.write("internal error: cannot write the output: %s\n" % exc)
        return INTERNAL_EXIT
    return code


if __name__ == "__main__":
    sys.exit(main())
