"""Workload definitions: base ladders and seeded operation streams.

Nothing here imports ``toric_qh``; the streams are the benchmark's own
inputs.  Every stream is stratified: each cycle visits every base of the
workload's ladder once, in a seeded order.  The mix of cheap and
expensive operations is then the same on every seed, so run-to-run
spread comes from timing, not from which bases a seed happened to draw,
and with an odd number of strata the median and p90 fall inside a
stratum rather than on the edge between two.
"""

import itertools
import random

from inputs import check_translate, named_bases, random_shift, translate

# Latency ladder for one-shot CLI calls on a new polytope; 17 strata.
CLI_BASES = ("cp2", "cp3", "cp4", "cp5", "cp6", "cp7", "cp8", "cp9", "cp10",
             "cp11", "cp12", "cp1xcp1", "blowup_cp3", "cp1xcp2", "cp2xcp2",
             "blowup_cp3xcp1", "cp1^3")
# Corpus for the selfcheck sweep, products and blowups of rank 6..27;
# 15 strata, so that a run holds 100+ checks and p90 falls on rank 18.
SWEEP_BASES = ("blowup_cp3", "cp2xcp1", "cp1^3", "cp2xcp2", "cp3xcp1",
               "cp4xcp1", "cp1^2xcp2", "cp3xcp2", "blowup_cp3xcp1", "cp5xcp1",
               "cp1^4", "cp4xcp2", "cp3xcp3", "blowup_cp3xcp2", "cp2^3")
# Rings kept open in the interactive session, ranks 6..27; 5 strata.  The
# median falls on cp2xcp2 and p90 on cp2^3.  blowup_cp3^2 (rank 36) is left
# out: its query time varies 0.23-0.95 s with c, too few fit in a run for a
# steady figure.
RING_BASES = ("blowup_cp3", "cp1^3", "cp2xcp2", "blowup_cp3xcp2", "cp2^3")

WORKLOADS = ("cli-oneshot", "selfcheck-sweep", "ring-session")
LADDERS = {"cli-oneshot": CLI_BASES, "selfcheck-sweep": SWEEP_BASES,
           "ring-session": RING_BASES}

# One slot per CLI command; "seidel" draws its facet per operation.
CLI_SLOTS = ("validate", "primitives", "presentation L classical",
             "presentation L quantum", "presentation M classical",
             "presentation M quantum", "seidel", "mul", "invert", "betti")


def cli_argv(slot, base, facet=None):
    """Command words (without format and path) for one CLI slot."""
    words = slot.split()
    if words[0] == "presentation":
        return ["presentation", "--space", words[1], "--flavor", words[2]]
    if slot == "seidel":
        return ["seidel", "--facet", str(facet)]
    if slot == "mul":
        return ["mul", "X1", f"X{base.nfacets}"]
    if slot == "invert":
        return ["invert", "X1*q"]
    return [slot]


def all_cli_argvs(base):
    """Every command the cli-oneshot stream can issue on base."""
    out = []
    for slot in CLI_SLOTS:
        if slot == "seidel":
            out += [cli_argv(slot, base, j) for j in range(1, base.nfacets + 1)]
        else:
            out.append(cli_argv(slot, base))
    return out


def op_key(base_name, argv):
    return base_name + " | " + " ".join(argv)


def stream(workload, seed, worker, names=None):
    """Endless seeded stream of operation descriptions for one worker.

    cli-oneshot and selfcheck-sweep ops carry the facets of a fresh
    integer translate of their base, so caches keyed by polytope value
    only hit where a user re-running the same file would hit.
    """
    bases = named_bases()
    names = tuple(names or LADDERS[workload])
    rng = random.Random(f"{workload}:{seed}:{worker}")
    slot_offset = rng.randrange(len(CLI_SLOTS))
    for cycle in itertools.count():
        order = list(names)
        rng.shuffle(order)
        for name in order:
            base = bases[name]
            op = {"base": name, "cycle": cycle}
            if workload == "ring-session":
                op["combo"] = [rng.randint(-2, 2) for _ in range(base.nfacets)]
                op["element"] = [sorted(rng.sample(range(-3, 4), rng.randint(1, 2)))
                                 for _ in range(base.rank)]
                yield op
                continue
            shift = random_shift(rng, base.dim)
            op["facets"] = translate(base, shift)
            check_translate(base, shift, op["facets"])
            if workload == "selfcheck-sweep":
                op["argv"] = ["selfcheck"]
            else:
                slot = CLI_SLOTS[(names.index(name) + cycle + slot_offset) % len(CLI_SLOTS)]
                op["argv"] = cli_argv(slot, base, rng.randint(1, base.nfacets))
            yield op
