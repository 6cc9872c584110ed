"""Seeded manifests for the benchmark workloads.

The generator does not import toralab: the program under test receives
only the manifests built here.  Every workload is a list of operations
``{"label", "scenario", "manifest"}``; one pass runs them in order.  The
same seed always gives the same manifests, and the work per pass does not
depend on the seed (the seed moves sample points, mode choices and the
classify matrices, not their sizes).
"""

import numpy as np

CAT = [[2, 1], [1, 1]]
# f = cat map + 1e-3 sin(2 pi y) e_1
SIN_Y = [{"freq": [0, 1], "amplitude": [1.0], "kind": "sin"}]

# Matrices per classify corpus: (dimension, count) for elementary products,
# then (d1, d2, count) for block-diagonal pairs.  Fixed counts keep the
# corpus cost the same for every seed; dimension 6 appears only as a block
# pair because a generic 6x6 product costs 0.1-1.8 s depending on the draw.
CLASSIFY_DIMS = [(2, 8), (3, 8), (4, 6), (5, 2)]
CLASSIFY_BLOCKS = [(2, 2, 2), (2, 3, 2), (3, 3, 2), (2, 4, 2)]
ENTRY_CAP = 9


def _op(label, scenario, seed, params):
    return {"label": label, "scenario": scenario,
            "manifest": {"scenario": scenario, "seed": int(seed),
                         "params": params}}


def elementary_product(rng, d, steps, cap=ENTRY_CAP):
    """Product of random elementary integer matrices (shears, swaps, sign
    flips), rejecting factors that push an entry above cap."""
    m = np.eye(d, dtype=np.int64)
    for _ in range(steps):
        kind = rng.integers(0, 4)
        i, j = rng.choice(d, size=2, replace=False)
        e = np.eye(d, dtype=np.int64)
        if kind <= 1:
            e[i, j] = rng.choice([-2, -1, 1, 2])
        elif kind == 2:
            e[[i, j]] = e[[j, i]]
        else:
            e[i, i] = -1
        cand = e @ m
        if np.abs(cand).max() <= cap:
            m = cand
    return m


def _block_diag(a, b):
    d = a.shape[0] + b.shape[0]
    m = np.zeros((d, d), dtype=np.int64)
    m[:a.shape[0], :a.shape[0]] = a
    m[a.shape[0]:, a.shape[0]:] = b
    return m


def classify_corpus(rng):
    mats = []
    for d, count in CLASSIFY_DIMS:
        mats += [elementary_product(rng, d, 4 * d) for _ in range(count)]
    for d1, d2, count in CLASSIFY_BLOCKS:
        mats += [_block_diag(elementary_product(rng, d1, 4 * d1),
                             elementary_product(rng, d2, 4 * d2))
                 for _ in range(count)]
    return [m.tolist() for m in mats]


def random_modes(rng, count, max_freq):
    """Real modes with distinct nonzero frequencies |n|_inf <= max_freq."""
    seen, modes = set(), []
    while len(modes) < count:
        n = tuple(int(x) for x in rng.integers(-max_freq, max_freq + 1, 2))
        if n == (0, 0) or n in seen or tuple(-x for x in n) in seen:
            continue
        seen.add(n)
        modes.append({"freq": list(n),
                      "amplitude": [float(x) for x in rng.uniform(-1, 1, 2)],
                      "kind": "sin" if rng.random() < 0.5 else "cos"})
    return modes


def orbit(seed):
    # Large sparse batches: grid sweeps stress TrigPoly.eval on a one-mode
    # perturbation and the Newton PerturbedMap.invert.  The d=4 manifest
    # takes the general-d paths that 2D-only shortcuts bypass; its size stays
    # fixed because it shows a known failure (checks.KNOWN_FAILURES).
    return [
        _op("conjugate", "conjugate", seed,
            {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "n_grid": 64,
             "tol": 1e-10, "samples": 10000}),
        _op("regularity", "regularity", seed,
            {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "n_grid": 64,
             "tol": 1e-10, "resolutions": [32]}),
        _op("conjugate4", "conjugate", seed,
            {"matrix": [[2, 1, 0, 0], [1, 1, 0, 0],
                        [0, 0, 3, 1], [0, 0, 2, 1]],
             "eps": 1e-3, "n_grid": 12, "tol": 1e-10, "samples": 2000,
             "modes": [{"freq": [0, 1, 0, 0], "amplitude": [1.0],
                        "kind": "sin"},
                       {"freq": [0, 0, 0, 1], "amplitude": [1.0],
                        "kind": "sin"},
                       {"freq": [1, 0, 1, 0], "amplitude": [1.0],
                        "kind": "cos"}]}),
    ]


def kam(seed):
    # Box-dense input: f_1 of KAM step 2 carries ~10^3 modes, so the same
    # torusfn and maps layers as in orbit run with dense coefficient boxes,
    # plus the to_trig projections and solve_linearized on seeded modes.
    rng = np.random.default_rng([seed, 2])
    return [
        _op("kam", "kam", seed,
            {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "steps": 2,
             "radius": 16, "n_grid": 36}),
        _op("linearized", "linearized", seed,
            {"matrix": CAT, "radius": 24, "modes": random_modes(rng, 40, 12)}),
    ]


def diagnostics(seed):
    # Thousands of calls on 1-36 points, so per-call overhead dominates
    # torusfn (the opposite of orbit), plus exact algebra (factoring,
    # certified roots, lattice search) that no other workload touches.
    # PerturbedMap.invert is never called here.
    rng = np.random.default_rng([seed, 3])
    ops = [
        _op("lyapunov", "lyapunov", seed,
            {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "n": 1000,
             "grid_per_axis": 6}),
        _op("cocycle", "cocycle", seed,
            {"matrix": CAT, "eps": 1e-3, "modes": SIN_Y, "periods": 8}),
        _op("counterexample", "counterexample", seed,
            {"psi_grid": 128, "holder_pairs": 4000, "n_points": 4000}),
    ]
    for i, mat in enumerate(classify_corpus(rng)):
        ops.append(_op(f"classify-{i:02d}", "classify", seed,
                       {"matrix": mat, "definitional_check": True}))
    return ops


WORKLOADS = {"orbit": orbit, "kam": kam, "diagnostics": diagnostics}


def metric_name(label):
    """End-to-end timing metric an operation reports under."""
    return "classify_s" if label.startswith("classify-") else f"{label}_s"
