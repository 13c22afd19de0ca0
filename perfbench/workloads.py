"""The benchmark's workloads: which experiment configs each one runs.

Each workload is chosen so that one layer a planned optimisation
rewrites does most of its work, while another workload bypasses that
layer and should not move.  Shares quoted below come from the traced
run (``run.py --trace 1``) at the commit that introduced the benchmark.

A child process runs one whole workload, and a timed run reports the
median over its children.  This shared machine's speed swings by a
fifth within seconds, so a workload child is kept to a few seconds
(``paths`` below the experiments' defaults where a check allows it)
to give each 30-second run enough children for a steady median.

* ``noise-paths``: the noise layer alone.  ``ou_series`` takes ~53 % of
  the time, ``sample_wiener`` ~28 % and ``ou_vector`` ~10 %; ~0.61 M
  ``WienerPath.index_of`` calls, no matrices.  ``temperedness`` (150
  long paths, each evaluated at every step) and ``ou-stats`` (10 000
  short paths with one evaluation each, the default, which its 5 %
  variance check needs) use the layer in two different ways.
* ``pullback-ensemble``: 272 independent solves at N = 200, 72 000
  trajectory-steps (``absorbing`` with 10 paths, whose checks hold for
  every path, plus ``fixed-point``); stepping ~79 %, ``noise_series``
  ~11 %, co-norms ~4 %, quadrature ~2 %.  The target of batched
  stepping.
* ``operator-assembly``: matrix assembly ~93 %: a few large spline
  matrices, many small linear ones, and repeated builds (61 calls on 23
  distinct inputs).  Structured assembly or a matrix memo shows here.
* ``restart-chain``: unbatched, dependent stepping (6 solves, 24 000
  trajectory-steps, each leg restarting from the previous terminal
  segment).  It carries the cocycle residual, which must stay exactly
  0.0.  ``t = s = 20`` lengthens the default chain, which would
  otherwise be mostly matrix assembly.
"""

from __future__ import annotations

DEFAULT_SEED = 20260814

# Workload name -> list of (experiment, extra keys); other keys default.
WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "noise-paths": [("temperedness", {"paths": 150}), ("ou-stats", {})],
    "pullback-ensemble": [("absorbing", {"paths": 10}), ("fixed-point", {})],
    "operator-assembly": [
        ("convergence-study", {}),
        ("semigroup-bounds", {}),
        ("kernel-bound", {}),
        ("picard-contraction", {}),
    ],
    "restart-chain": [("cocycle", {"t": 20, "s": 20})],
}

# Checks each experiment reports; an experiment that raises fails them all.
# The keys are the nine experiments, each run by exactly one workload.
CHECK_COUNTS = {
    "kernel-bound": 2,
    "semigroup-bounds": 1,
    "ou-stats": 4,
    "temperedness": 2,
    "picard-contraction": 3,
    "cocycle": 2,
    "absorbing": 3,
    "fixed-point": 3,
    "convergence-study": 1,
}
EXPERIMENTS = tuple(CHECK_COUNTS)
assert sorted(EXPERIMENTS) == sorted(e for specs in WORKLOADS.values() for e, _ in specs)


def config_texts(workload: str, seed: int) -> list[str]:
    """The flat ``key = value`` configs the program receives, in run order."""
    texts = []
    for experiment, extra in WORKLOADS[workload]:
        lines = [f"experiment = {experiment}", f"seed = {seed}"]
        lines += [f"{key} = {value}" for key, value in extra.items()]
        texts.append("\n".join(lines) + "\n")
    return texts
