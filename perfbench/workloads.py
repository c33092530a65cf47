"""The benchmark's workloads: shipped configs run through ``gradlab check``.

Each workload is one shipped config plus fixed overrides.  The kernel
workloads keep the shipped grids (16/32 and 24/32) but run one rank, so a
single ``check`` call fits the per-run time budget; in two dimensions every
rank >= 1 has the same fiber dimension, so one rank keeps the pencil sizes,
the eigensolve share and the memory peak of the full config.  See NOTES.md
for why each workload was chosen.

The benchmark seed never reaches the program directly: it selects one of
the config seeds whose reference status map was captured (reference/*.json),
and that config seed is passed as ``--override seed=<s>``.
"""

WORKLOADS = {
    "check-flat2d": {"config": "configs/flat2d.cfg", "overrides": ["ranks=2"]},
    "check-conf2d": {"config": "configs/conf2d.cfg", "overrides": ["ranks=2"]},
    "check-flat3d": {"config": "configs/flat3d.cfg", "overrides": []},
}

# config seeds with a captured reference; benchmark seed s runs CONFIG_SEEDS[s % len]
CONFIG_SEEDS = tuple(range(1, 11))


def config_seed(seed):
    return CONFIG_SEEDS[seed % len(CONFIG_SEEDS)]


def overrides(workload, seed):
    """The ``key=value`` overrides applied to the workload's config."""
    return [*WORKLOADS[workload]["overrides"], f"seed={config_seed(seed)}"]


def check_argv(workload, seed, out_dir):
    """Arguments of the ``gradlab check`` call for one workload and seed."""
    argv = ["check", "--config", WORKLOADS[workload]["config"], "--out", str(out_dir)]
    for pair in overrides(workload, seed):
        argv += ["--override", pair]
    return argv
