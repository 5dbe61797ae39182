"""Workload definitions for the rgglearn benchmark.

Each workload is a scaled-down acceptance criterion from
tests/test_acceptance.py.  This module imports nothing but the standard
library, so the set-up probe can time `import rgglearn` on its own.
"""

WORKLOADS = ("ladder-d1", "ladder-d2", "two-label", "reference-fd")

# Master seeds with recorded reference values (see record.py).  A benchmark
# seed s maps onto them as 1 + s mod count, so any integer seed is valid.
LADDER_SEEDS = 8
DEMO_SEEDS = 64

# Criterion 6b ladders, with the seed count cut from 25 (d=1) and 45 (d=2).
# d=1 keeps one seed per rung so that a run holds several repetitions.
LADDER_OVERRIDES = {
    "ladder-d1": {
        "run.seeds": "1",
        "domain.d": "1", "domain.box": "0 1", "domain.density": "constant",
        "source.anchors": "0.3 ; 0.7", "source.center": "0.5",
        "ladder.eps": "0.07 0.05 0.035 0.025 0.018",
        "ladder.n_rule": "power", "ladder.n_const": "600", "ladder.n_power": "0.75",
        "ladder.k_rule": "cor53",
    },
    "ladder-d2": {
        "run.seeds": "3",
        "domain.density": "affine", "domain.slope": "0.8",
        "ladder.eps": "0.15 0.11 0.08 0.06",
        "ladder.n_rule": "power", "ladder.n_const": "8000", "ladder.n_power": "0",
        "ladder.k_rule": "cor52",
    },
}

# Criterion 8: one demo_two_point call per operation.
DEMO_OVERRIDES = {
    "run.seeds": "1", "run.experiment": "demo",
    "ladder.eps": "0.08",
    "ladder.n_rule": "power", "ladder.n_const": "10000", "ladder.n_power": "0",
}

# Criterion 4 on the h = 1/256 grid instead of 1/512.
FD_H = 1.0 / 256
FD_ANCHORS = ((0.3, 0.5), (0.7, 0.5))
FD_RADII = (0.02, 0.04, 0.08, 0.16)
FD_SLOPE_BAND = (1.7, 2.3)

SCALE_DOWN = {
    "ladder-d1": "criterion 6b d=1 ladder (5 eps rungs, n = 600 eps^-0.75, k by cor53) "
                 "with 1 seed per rung instead of 25; the slope band is not applied",
    "ladder-d2": "criterion 6b d=2 ladder (4 eps rungs, n = 8000, k by cor52) "
                 "with 3 seeds per rung instead of 45; the slope band is not applied",
    "two-label": "criterion 8 demo_two_point (n = 10000, eps = 0.08, labels +-1), "
                 "one call per operation over consecutive master seeds",
    "reference-fd": "criterion 4 mollified-source sequence (1 atomic + 4 bump solves) "
                    "on h = 1/256 instead of 1/512; slope band [1.7, 2.3] kept",
}


def master_seed(workload, seed, rep=0):
    """Recorded master seed for benchmark seed `seed` and repetition `rep`.

    Ladders repeat one master seed; two-label walks consecutive ones;
    reference-fd has no random input (0).
    """
    if workload == "reference-fd":
        return 0
    if workload == "two-label":
        return 1 + (seed + rep) % DEMO_SEEDS
    return 1 + seed % LADDER_SEEDS


def make_inputs(rgg, workload, mseed, outdir):
    """The workload's config objects: what a CLI call builds before solving."""
    if workload in LADDER_OVERRIDES:
        over = dict(LADDER_OVERRIDES[workload], **{
            "run.master_seed": str(mseed), "run.outdir": outdir})
        return rgg.ExperimentConfig(overrides=over)
    if workload == "two-label":
        over = dict(DEMO_OVERRIDES, **{
            "run.master_seed": str(mseed), "run.outdir": outdir})
        return rgg.ExperimentConfig(overrides=over)
    if workload == "reference-fd":
        box = rgg.Box([0, 0], [1, 1])
        return rgg.build_grid(box, FD_H, rgg.make_density("constant", box))
    raise ValueError("unknown workload %r" % workload)
