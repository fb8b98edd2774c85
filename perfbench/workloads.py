"""Operation lists of the four workloads, drawn from the seed alone.

An operation is a small JSON-able list:

    ["series", spec]          sl2hilb.hilbert_series(parse_rep(spec))
    ["gammas", spec]          sl2hilb.gammas(parse_rep(spec))
    ["closed", name, spec]    sl2hilb.laurent.<name>(parse_rep(spec)) for the
                              closed forms gamma0..gamma3 and first_coeff_sum
    ["cli", argv]             sl2hilb.cli.main(argv), stdout captured

Every operation any seed can draw is listed by `all_operations`, which is
what the reference file covers.
"""

import json
import random

WORKLOADS = ("series_single", "series_multi", "gammas", "cli")

# The V16 end is the scale target: single forms have one weight family with
# every multiplicity 1, so U_alpha and assembly do all the work.
SERIES_SINGLE = ("V8", "V10", "V12", "V14", "V15", "V16")

# Reps with a repeated summand and dim 15..24, grouped into strata of
# similar cost.  One rep is drawn from each stratum, so the draw varies with
# the seed while the cost of a pass stays about the same.
SERIES_MULTI_STRATA = (
    ("4V3", "5V3", "6V2", "7V2"),
    ("3V4", "3V2+2V3"),
    ("4V1+2V5", "4V2+2V3", "5V2+V3", "2V3+2V5"),
    ("3V5", "2V2+2V3+V4"),
    ("4V4", "2V7"),
    ("2V5+V4", "3V3+2V4", "2V3+V4+V5", "3V3+V6"),
    ("3V6", "2V1+2V6", "3V4+V5"),
    ("2V8",),
)

# gammas(rep) on mid-size reps: the exceptions that fall back to the series
# (V4, 2V4, V5, V6, V8), OneV1RestEven reps and generic ones, dim <= 13.
GAMMAS_PUBLIC = (
    "V4", "2V4", "V5", "V6", "V7", "V8", "V9", "V11", "V12",
    "V1+V2+V4", "V1+2V4", "2V2+V3", "V3+V4", "3V3", "V2+V3+V5",
)

# Reps only the Schur closed forms reach.
GAMMAS_CLOSED = ("V30", "V40", "V50", "V60", "4V9", "5V11", "3V7+V8",
                 "V10+V11+V12")
CLOSED_FORMS = ("gamma0", "gamma1", "gamma2", "gamma3", "first_coeff_sum")

# About thirty reps of dim <= 14 for the CLI stream.
CLI_REPS = (
    "V6", "V7", "V8", "V9", "2V4", "2V5", "3V3", "4V2",
    "V1+V4", "V1+V5", "V1+V6", "V1+V7", "V2+V4", "V2+V5", "V2+V6",
    "V3+V4", "V3+V5", "V3+V6", "V4+V5", "2V1+V4", "2V1+2V2", "2V2+V3",
    "V1+2V3", "V1+2V4", "V2+2V3", "2V3+V4", "V1+V2+V3", "V1+V2+V4",
    "V1+V3+V5", "V2+V3+V4",
)
CLI_KINDS = (
    ("series",),
    ("series", "--format", "json"),
    ("series", "--format", "latex"),
    ("series", "--terms", "12"),
    ("expand",),
    ("expand", "--terms", "20", "--format", "json"),
    ("gamma",),
    ("gamma", "--format", "json"),
    ("gamma", "--format", "latex"),
)
# 650 requests put the tail (p98, 13 requests beyond it) among first
# sightings of similar cost, away from a gap in the miss latencies.
CLI_REQUESTS = 650
ZIPF_S = 1.0


def _cli_argv(kind, spec):
    return [kind[0], spec] + list(kind[1:])


def cli_stream(rng):
    """A Zipf stream over CLI_REPS in which every rep appears at least once.

    Popularity ranks are a seeded permutation of the reps; a rep the draw
    missed replaces one request of a rep that occurs more than once, so the
    stream length and the set of first sightings are the same for every seed.
    """
    ranked = list(CLI_REPS)
    rng.shuffle(ranked)
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(len(ranked))]
    reps = rng.choices(ranked, weights=weights, k=CLI_REQUESTS)
    for spec in ranked:
        if spec in reps:
            continue
        counts = {s: reps.count(s) for s in reps}
        spare = [i for i, s in enumerate(reps) if counts[s] > 1]
        reps[rng.choice(spare)] = spec
    return [["cli", _cli_argv(rng.choice(CLI_KINDS), spec)] for spec in reps]


def operations(workload, seed):
    """The fixed operation list of one pass of `workload` for `seed`."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "series_single":
        ops = [["series", s] for s in SERIES_SINGLE]
    elif workload == "series_multi":
        ops = [["series", rng.choice(stratum)] for stratum in SERIES_MULTI_STRATA]
    elif workload == "gammas":
        ops = [["gammas", s] for s in GAMMAS_PUBLIC]
        ops += [["closed", f, s] for s in GAMMAS_CLOSED for f in CLOSED_FORMS]
    elif workload == "cli":
        return cli_stream(rng)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(ops)
    return ops


def all_operations():
    """Every operation some seed can draw, without repeats."""
    ops = [["series", s] for s in SERIES_SINGLE]
    ops += [["series", s] for stratum in SERIES_MULTI_STRATA for s in stratum]
    ops += [["gammas", s] for s in GAMMAS_PUBLIC]
    ops += [["closed", f, s] for s in GAMMAS_CLOSED for f in CLOSED_FORMS]
    ops += [["cli", _cli_argv(k, s)] for s in CLI_REPS for k in CLI_KINDS]
    return ops


def op_key(op):
    return json.dumps(op, separators=(",", ":"))
