"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured numbers at the stated tolerance.

Criterion 2d checks that psi is Hoelder but not Lipschitz: the supremum
finite-difference ratio of psi grows between the scales 2^-4 and 2^-20
at the rate d^(beta - 1) (beta = log lambda / log mu ~ 0.731), i.e. the
exponent read off that growth is beta within criterion 2c's 0.05, while
the ratio of the Lipschitz phi stays flat. The original threshold, a
growth of 10^3, is not used: over 16 binary scales it needs
beta <= 1 - log2(10^3)/16 ~ 0.377, which no psi that passes 2c can have.
"""

import json
import time

import numpy as np

from oracle_helpers import brute_force_verdict, shadow_conjugacy
from test_spectral import _random_corpus
from toralab import (cli, cocycles, conjugacy, maps, spectral, twisted)
from toralab.torusfn import TrigPoly, estimate_holder, \
    finite_difference_ratio

CAT = spectral.automorphism([[2, 1], [1, 1]])
B2 = spectral.automorphism([[3, 1], [2, 1]])
GOLDEN = (3 + np.sqrt(5)) / 2


def crit3_map(eps=1e-3):
    return maps.build(CAT, TrigPoly.sin_mode((0, 1), [eps, 0.0]), warn=False)


def test_criterion_1_classification():
    t0 = time.time()
    flags = spectral.classify(CAT)
    assert flags.hyperbolic and flags.irreducible and flags.weakly_irreducible

    for m in (spectral.block_diagonal(CAT, CAT),
              spectral.block_upper_identity(CAT)):
        fl = spectral.classify(m)
        assert fl.weakly_irreducible and not fl.irreducible

    corpus = _random_corpus(50, seed=11)
    checked = 0
    for m in corpus:
        flags_m = spectral.classify(m)
        verdict, _ = spectral.weakly_irreducible_definitional(m)
        assert verdict == flags_m.weakly_irreducible, m.entries
        checked += 1
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"classification suite took {elapsed:.1f}s"
    print(f"\n[criterion 1] PASS: cat/block flags correct; lemma vs "
          f"definitional agree on {checked} matrices; {elapsed:.1f}s < 10s")


def _counterexample():
    return conjugacy.build_counterexample(
        CAT, B2, TrigPoly.sin_mode((1, 0), 0.01), k_trunc=60)


def test_criterion_2_counterexample_core():
    t0 = time.time()
    ce = _counterexample()
    rng = np.random.default_rng(0)
    res_a = ce.cohomological_residual(rng.random((10000, 2)))
    assert res_a < 1e-12
    res_b = ce.conjugacy_residual(rng.random((10000, 4)))
    assert res_b < 1e-10
    est = estimate_holder(lambda p: ce.psi(p)[..., None], dim=2,
                          pairs=10000, seed=1)
    target = np.log(ce.lam) / np.log(ce.mu)
    assert abs(est.exponent - target) <= 0.05
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\n[criterion 2a-c] PASS: cohomological residual {res_a:.2e} "
          f"< 1e-12; conjugacy residual {res_b:.2e} < 1e-10; Holder "
          f"{est.exponent:.4f} vs log(lam)/log(mu) = {target:.4f} "
          f"(|diff| <= 0.05); {elapsed:.0f}s < 120s")


def test_criterion_2d_non_lipschitz_threshold():
    """psi grows like d^(beta - 1); the Lipschitz phi does not grow.

    The stated threshold, r20 > 10^3 r4, is unattainable: over the 16
    binary scales from 2^-4 to 2^-20 a growth of 10^3 needs
    beta <= 1 - log2(10^3)/16 ~ 0.377, contradicting criterion 2c
    (beta ~ 0.731). Instead the exponent 1 - log2(r20/r4)/16 must match
    beta within 2c's tolerance of 0.05, which bounds the growth between
    about 11.4x and 34.5x, and phi itself must grow by less than 2x.
    """
    ce = _counterexample()
    psi_fn = lambda p: ce.psi(p)[..., None]
    r4, r20 = finite_difference_ratio(psi_fn, 2, [2.0 ** -4, 2.0 ** -20],
                                      pairs=10000, seed=2)
    beta = np.log(ce.lam) / np.log(ce.mu)
    growth = r20 / r4
    exponent = 1.0 - np.log2(growth) / 16
    lo = 2.0 ** (16 * (1 - beta - 0.05))
    hi = 2.0 ** (16 * (1 - beta + 0.05))
    assert abs(exponent - beta) <= 0.05, (
        f"measured growth {growth:.1f}x (ratio {r4:.4f} at 2^-4 to "
        f"{r20:.4f} at 2^-20) gives exponent {exponent:.4f}; expected "
        f"beta = {beta:.4f} within 0.05, i.e. growth in [{lo:.1f}, {hi:.1f}]x "
        f"around the asymptotic rate 2^(16(1-beta)) = "
        f"{2.0 ** (16 * (1 - beta)):.1f}x")

    phi = ce.psi.phi
    p4, p20 = finite_difference_ratio(phi, 2, [2.0 ** -4, 2.0 ** -20],
                                      pairs=10000, seed=2)
    assert p20 < 2.0 * p4, (
        f"Lipschitz control: phi's ratio grew {p20 / p4:.2f}x "
        f"({p4:.4f} to {p20:.4f}), expected < 2x")
    print(f"\n[criterion 2d] PASS: psi FD-ratio growth {growth:.1f}x "
          f"({r4:.4f} -> {r20:.4f}), exponent {exponent:.4f} vs beta "
          f"{beta:.4f} (|diff| <= 0.05, growth in [{lo:.1f}, {hi:.1f}]x); "
          f"Lipschitz phi grows {p20 / p4:.2f}x < 2x")


def test_criterion_3_conjugacy_solver():
    t0 = time.time()
    f = crit3_map()
    res = conjugacy.solve_conjugacy(f, tol=1e-10, grid_n=256)
    residual = conjugacy.residual_check(res, 10000, 3)["residual_max"]
    assert residual < 1e-9
    rng = np.random.default_rng(4)
    pts = rng.random((100, 2))
    hs = res.evaluate(pts)
    worst = 0.0
    for i in range(100):
        oracle = shadow_conjugacy(f, pts[i], window=40)
        diff = hs[i] - oracle
        diff -= np.round(diff)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert worst < 1e-7
    cov = conjugacy.periodic_covariance(res, n_max=3)
    assert cov < 1e-8
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print(f"\n[criterion 3] PASS: residual {residual:.2e} < 1e-9 "
          f"on 10^4 points; shadowing agreement {worst:.2e} < 1e-7 at 100 "
          f"points; periodic covariance {cov:.2e} < 1e-8; "
          f"{elapsed:.0f}s < 60s")


def test_criterion_4_linear_response_scaling():
    eps_list = [1e-4, 1e-3, 1e-2]
    norms = []
    for eps in eps_list:
        res = conjugacy.solve_conjugacy(crit3_map(eps), tol=1e-11,
                                        grid_n=64)
        norms.append(res.h_c0)
    ratios = [n / e for n, e in zip(norms, eps_list)]
    spread = max(ratios) / min(ratios)
    slope = float(np.polyfit(np.log(eps_list), np.log(norms), 1)[0])
    assert spread < 1.2
    assert abs(slope - 1.0) <= 0.05
    print(f"\n[criterion 4] PASS: ||h||/eps spread {spread:.3f} < 1.2; "
          f"log-log slope {slope:.4f} within 1.0 +- 0.05")


def test_criterion_5_periodic_points():
    f = crit3_map()
    expected = {1: 1, 2: 5, 3: 16}
    counts = {}
    for n, want in expected.items():
        res = maps.periodic_points(f, n)
        assert res.expected_count == want     # |det(L^n - I)| exactly
        assert res.point_count == want
        assert all(o.residual < 1e-10 for o in res.orbits)
        counts[n] = res.point_count
    print(f"\n[criterion 5] PASS: period-n counts {counts} match "
          f"|det(L^n - I)|; Newton residuals < 1e-10")


def test_criterion_6_lyapunov():
    ref = [-np.log(GOLDEN), np.log(GOLDEN)]
    f0 = maps.build(CAT, TrigPoly.zero(2, 2))
    rep0 = cocycles.lyapunov_qr(cocycles.CocycleSpec(f0, "derivative"),
                                [0.2, 0.4], 400)
    assert rep0.compare(ref) < 1e-8

    spec = cocycles.CocycleSpec(crit3_map(), "derivative")
    repv = cocycles.lyapunov_volume(spec, 2000, grid_per_axis=8,
                                    reference=ref, seed=6)
    assert repv.max_deviation < 5e-3

    ce = _counterexample()
    spec4 = cocycles.CocycleSpec(ce.f, "derivative")
    ref4 = ce.f.spec.exponents
    n_orbits = 0
    worst = 0.0
    for n in (1, 2):
        for orbit in maps.periodic_points(ce.f, n).orbits:
            rep = cocycles.exponents_at_periodic(spec4, orbit,
                                                 reference=ref4)
            worst = max(worst, rep.max_deviation)
            n_orbits += 1
    assert worst < 1e-8
    print(f"\n[criterion 6] PASS: linear exponents to {rep0.max_deviation:.1e}"
          f" (< 1e-8); volume exponents to {repv.max_deviation:.1e} (< 5e-3);"
          f" periodic exponents at {n_orbits} counterexample orbits match L"
          f" to {worst:.1e} (< 1e-8)")


def test_criterion_7_twisted_solver():
    rng = np.random.default_rng(7)
    coeffs = {}
    for _ in range(10):
        n = tuple(int(v) for v in rng.integers(-8, 9, size=2))
        coeffs[n] = rng.normal(size=2) + 1j * rng.normal(size=2)
    q = TrigPoly(2, 2, coeffs).symmetrize_real()
    sol = twisted.solve_linearized(CAT, q, radius=8)
    assert sol.residual_max < 1e-12

    coeffs = {}
    for _ in range(6):
        n = tuple(int(v) for v in rng.integers(-2, 3, size=2))
        if n == (0, 0):
            continue
        coeffs[n] = rng.normal(size=2) + 1j * rng.normal(size=2)
    g = TrigPoly(2, 2, coeffs).symmetrize_real()
    qg = g.matrix_apply(CAT.as_array()) - g.compose_affine(CAT.rows())
    sol_g = twisted.solve_linearized(CAT, qg, radius=8)
    recovery = max(float(np.max(np.abs(g[n] - sol_g.h[n])))
                   for n in set(list(g.coeffs) + list(sol_g.h.coeffs)))
    assert sol_g.residual_max < 1e-12
    assert recovery < 1e-12
    print(f"\n[criterion 7] PASS: substitution residual {sol.residual_max:.1e}"
          f" < 1e-12 for |n| <= 8 support; solvable case recovered to "
          f"{recovery:.1e} with residual {sol_g.residual_max:.1e} < 1e-12")


def test_criterion_8_kam_step():
    f = crit3_map()
    f1, rep1 = twisted.kam_step(f, radius=16, grid_n=128)
    f2, rep2 = twisted.kam_step(f1, radius=16, grid_n=128)
    assert rep1.output_c0 <= 0.5 * rep1.input_c0, (
        f"step 1 did not halve the distance: {rep1.as_dict()}; "
        f"orientation diagnostics: {rep1.orientation}, "
        f"no_improvement={rep1.no_improvement}")
    assert rep2.output_c0 < rep2.input_c0, (
        f"step 2 did not decrease: {rep2.as_dict()}; orientation "
        f"diagnostics: {rep2.orientation}, "
        f"no_improvement={rep2.no_improvement}")
    for rep in (rep1, rep2):
        d = rep.as_dict()
        for key in ("input_c0", "input_c1", "output_c0", "output_c1",
                    "hprime_c0", "linearized_residual", "orientation",
                    "solver_report"):
            assert key in d
    print(f"\n[criterion 8] PASS: step 1 contraction "
          f"{rep1.improvement:.4f} <= 0.5; step 2 contraction "
          f"{rep2.improvement:.4f} < 1 (monotone); orientation "
          f"{rep1.orientation}; full telemetry emitted")


def test_criterion_9_conformality_oracle():
    rng = np.random.default_rng(42)
    disagreements = []
    indeterminate = 0
    total = 100
    for i in range(total):
        m = rng.normal(size=(2, 2)) * 2
        if abs(np.linalg.det(m)) < 0.05:
            m += np.eye(2)
        mine = cocycles.conformality_check(m).verdict
        oracle = brute_force_verdict(m, seed=i)
        if "indeterminate" in (mine, oracle):
            indeterminate += 1
            continue
        if mine != oracle:
            disagreements.append((m.tolist(), mine, oracle))
    assert not disagreements, disagreements
    assert indeterminate <= 2
    print(f"\n[criterion 9] PASS: conformality verdicts agree with the "
          f"brute-force optimizer on {total} matrices "
          f"({indeterminate} indeterminate <= 2)")


def test_criterion_10_determinism(tmp_path):
    manifests = [
        {"scenario": "classify", "seed": 9,
         "params": {"matrix": [[2, 1], [1, 1]],
                    "definitional_check": True}},
        {"scenario": "linearized", "seed": 9,
         "params": {"matrix": [[2, 1], [1, 1]],
                    "modes": [{"freq": [0, 1], "amplitude": [0.5, 0.1],
                               "kind": "sin"}], "radius": 6}},
        {"scenario": "conjugate", "seed": 9,
         "params": {"matrix": [[2, 1], [1, 1]],
                    "modes": [{"freq": [0, 1], "amplitude": [1.0],
                               "kind": "sin"}],
                    "eps": 1e-3, "n_grid": 32, "samples": 300}},
        {"scenario": "counterexample", "seed": 9,
         "params": {"eps": 0.01, "k_trunc": 40, "n_points": 500,
                    "holder_pairs": 1000, "psi_grid": 16}},
    ]
    n_files = 0
    for i, manifest in enumerate(manifests):
        d1 = tmp_path / f"run{i}a"
        d2 = tmp_path / f"run{i}b"
        cli.run_manifest(json.loads(json.dumps(manifest)), str(d1))
        cli.run_manifest(json.loads(json.dumps(manifest)), str(d2))
        for child in sorted(d1.iterdir()):
            if child.name == "run.log":
                continue   # timing sidecar, documented non-deterministic
            other = d2 / child.name
            assert other.exists(), child.name
            assert child.read_bytes() == other.read_bytes(), child.name
            n_files += 1
    print(f"\n[criterion 10] PASS: {n_files} result/data files bitwise "
          f"identical across reruns (run.log timing sidecar excluded)")
