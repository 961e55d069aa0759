"""The benchmark's workloads: which instances each runs and what they must give.

Each workload loads a different layer of an instance's path through
``hltorus.identities.verify``:

* ``cold-hl``: building ``P_lambda`` (``hall_littlewood``) dominates.  Every
  instance starts from empty caches, like a fresh ``hltorus verify``.
* ``cold-density``: expanding the density (``densities._expansion``)
  dominates.  It mixes type-A densities with Koornwinder (BC) densities, so
  a gain on one kind cannot hide a loss on the other.  Caches are cleared
  per instance.
* ``sweep-pairs``: all (lambda, mu) pairs of the n=4 orthogonality grid in
  one process with warm caches, so ``P`` and the expansion are cache reads
  and the ``LaurentPoly`` product P * Pbar dominates.

The seed only permutes the order of the instances; the reports, and hence
the digest of the sorted reports, do not depend on it.
"""

import hashlib
import json
import random
from collections import namedtuple

# identity, n, m, weight, mu, order, expected status
COLD_HL = (
    ("o_plus_odd", 3, None, (2, 1), None, 8, "match"),
    ("o_minus_odd", 3, None, (1, 1, 1), None, 8, "match"),
    ("ab_oplus_odd", 3, None, (2, 1), None, 8, "match"),
    ("unm_vanishing", 4, 3, (1, 1, 0, 0, 0, -1, -1), None, 8, "match"),
    ("double_cover", 3, None, (2, 1, 0, 0, -1, -2), None, 10, "match"),
    ("u2n_vanishing", 3, None, (1, 1, 0, 0, -1, -1), None, 8, "match"),
    ("o_plus_even", 3, None, (2, 1, 1), None, 10, "match"),
)

COLD_DENSITY = (
    ("orthogonality", 5, None, (2, 1), (2, 1), 14, "match"),
    ("normalization_v", 4, None, None, None, 6, "match"),
    ("normalization_iii", 4, None, None, None, 8, "match"),
    ("kawanaka", 3, None, (2, 1), None, 10, "match"),
    ("symplectic", 3, None, (2, 2, 1, 1), None, 10, "match"),
    ("t2_branching", 5, None, (1, 1, 0, -1, -1), None, 10, "match"),
)

SWEEP_N = 4
SWEEP_MAX_WEIGHT = 6
SWEEP_ORDER = 12

# the self-test's small variant: every order cut to TINY_ORDER, and the sweep
# grid cut to weights of size at most TINY_SWEEP_MAX_WEIGHT
TINY_ORDER = 2
TINY_SWEEP_MAX_WEIGHT = 2

# Statuses that differ from the full-size run at the tiny order.
TINY_STATUS = {
    "o_minus_odd": "vanished-as-predicted",
    "t2_branching": "vanished-as-predicted",
}

WORKLOADS = ("cold-hl", "cold-density", "sweep-pairs")

# True: clear every module-level cache before each instance.
COLD = {"cold-hl": True, "cold-density": True, "sweep-pairs": False}

# sha256 of the sorted, timing-free JSON reports; see report_digest()
DIGESTS = {
    ("cold-hl", False): "5df0b9341d738129f7e31f267daf599004046bae416b980b0ead30766d8ae478",
    ("cold-density", False): "1000dbc3fef3a5e1416790ed7441fc509b62482f9ee45df45c8e6589fd84c8fd",
    ("sweep-pairs", False): "06936209ff64c481c394de1e0209ee20fc7ea44ec31bb32f491c624ba87a8072",
    ("cold-hl", True): "2f3854b0cd2e7fd78c2412d44d633ed2b58a56fecb70ed5e10d7994589f80a66",
    ("cold-density", True): "b2e781908b466dadd1f6382691c422886a281286b5114bb9382e36c01b18bd73",
    ("sweep-pairs", True): "5f8a960f3966f46ca4f3feced13540ad27dde6390e6200709810aa119d383084",
}


# One verify() call: its id in the unpermuted list, its arguments and the
# status it must report.
Instance = namedtuple("Instance", "id identity kwargs expected")


def _cold(table, tiny):
    out = []
    for i, (identity, n, m, weight, mu, order, status) in enumerate(table):
        if tiny:
            order = TINY_ORDER
            status = TINY_STATUS.get(identity, status)
        kwargs = {"n": n, "m": m, "weight": weight, "mu": mu, "order": order}
        out.append(Instance(i, identity, kwargs, status))
    return out


def _sweep(tiny, sweep_weights):
    max_weight = TINY_SWEEP_MAX_WEIGHT if tiny else SWEEP_MAX_WEIGHT
    order = TINY_ORDER if tiny else SWEEP_ORDER
    grid = sweep_weights("orthogonality", SWEEP_N, max_weight=max_weight)
    out = []
    for lam in grid:
        for mu in grid:
            # orthogonality: <P_lam, P_mu> vanishes unless lam == mu
            status = "match" if lam.parts == mu.parts else "vanished-as-predicted"
            kwargs = {"n": SWEEP_N, "weight": lam, "mu": mu, "order": order}
            out.append(Instance(len(out), "orthogonality", kwargs, status))
    return out


def instances(workload, seed, tiny, sweep_weights):
    """The workload's instances in the order the seed gives.

    ``sweep_weights`` is ``hltorus.identities.sweep_weights``; it is passed in
    so that this module imports nothing from the package under test.
    """
    if workload == "cold-hl":
        out = _cold(COLD_HL, tiny)
    elif workload == "cold-density":
        out = _cold(COLD_DENSITY, tiny)
    elif workload == "sweep-pairs":
        out = _sweep(tiny, sweep_weights)
    else:
        raise ValueError("unknown workload %r" % (workload,))
    random.Random(seed).shuffle(out)
    return out


def report_digest(lines):
    """sha256 over the sorted report lines, so instance order does not count."""
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def report_line(report):
    return json.dumps(report.to_json_obj(include_timing=False), sort_keys=True)
