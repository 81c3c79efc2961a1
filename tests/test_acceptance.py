"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete. Statistical criteria use fixed seeds, so outcomes are
reproducible bit-for-bit.
"""

import math
import time
from collections import Counter

import numpy as np
from scipy import stats

from replitest.calibrated import (
    CLOSENESS_DESK,
    INDEPENDENCE_DESK,
    UNIFORMITY_DESK,
    VARIANCE_RATIO_C,
)
from replitest.closeness import (
    ClosenessConfig,
    closeness_statistic,
    draw_closeness_counts,
    rep_closeness_test,
)
from replitest.experiments import (
    closeness_pair_fn,
    measure_replicability,
    uniformity_meta_pair_fn,
)
from replitest.hard_instances import draw_meta_closeness
from replitest.independence import (
    IndependenceConfig,
    averaged_stats,
    rep_independence_test,
    sampled_averaged_stats,
    stage1_scale,
)
from replitest.measures import (
    diagonal_measure,
    half_flat_measure,
    uniform_measure,
    uniform_product_measure,
    zipf_measure,
)
from replitest.rng import RngStream
from replitest.sampling import measure_sampler, multinomial_split
from replitest.uniformity import UniformityConfig
from replitest.walks import (
    ClosenessPairKernel,
    CoordKernel,
    estimate_mixing,
    product_walk_tau,
)

from oracles import (
    FlattenAssignment,
    enumerate_independence_means,
    flatten_1d,
    max_subbin_count,
    zc_marking_sum,
)

ROOT = RngStream(20250809, "acceptance")


def _report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} [{time.perf_counter() - started:5.1f}s] "
          f"{name}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _desk_closeness(n: int) -> ClosenessConfig:
    return ClosenessConfig(n=n, epsilon=0.3, rho=0.1, **CLOSENESS_DESK)


def _closeness_statistic_trial(p, q, config, stream) -> int:
    sizes = multinomial_split(4 * config.sample_size(), 4, stream.substream("split"))
    return closeness_statistic(*draw_closeness_counts(p, q, sizes, config.n, stream))


_AUDITS: dict = {}


def _variance_audit(n: int, instance: str, trials: int = 2000):
    key = (n, instance)
    if key not in _AUDITS:
        config = _desk_closeness(n)
        p = uniform_measure(n) if instance == "uniform" else zipf_measure(n)
        stream = ROOT.substream("audit", n, instance)
        values = np.array(
            [_closeness_statistic_trial(p, p, config, stream.substream(t))
             for t in range(trials)],
            dtype=float,
        )
        _AUDITS[key] = {
            "m": config.sample_size(),
            "mean": float(values.mean()),
            "var": float(values.var(ddof=1)),
            "sem": float(values.std(ddof=1) / math.sqrt(trials)),
            "c1": config.c1,
        }
    return _AUDITS[key]


def test_criterion_01_closeness_correctness():
    started = time.perf_counter()
    config = _desk_closeness(500)
    trials = 200
    rates = {}
    for label, (p, q) in {
        "uniform": (uniform_measure(500), uniform_measure(500)),
        "zipf": (zipf_measure(500), zipf_measure(500)),
        "far": (uniform_measure(500), half_flat_measure(500)),
    }.items():
        stream = ROOT.substream("c1", label)
        accepts = sum(
            rep_closeness_test(p, q, config, stream.substream(t)).accept
            for t in range(trials)
        )
        rates[label] = accepts / trials
    elapsed = time.perf_counter() - started
    ok = (
        rates["uniform"] >= 0.9
        and rates["zipf"] >= 0.9
        and 1 - rates["far"] >= 0.9
        and elapsed <= 120.0
    )
    _report(1, "closeness correctness", ok,
            f"accept(uniform)={rates['uniform']:.3f}, accept(zipf)={rates['zipf']:.3f}, "
            f"reject(far)={1 - rates['far']:.3f}, runtime={elapsed:.1f}s<=120s", started)


def test_criterion_02_closeness_replicability():
    started = time.perf_counter()
    config = _desk_closeness(500)
    pairs = 500
    rho = config.rho
    worst = ("", 0.0, 0.0)
    settings = {
        "uniform": closeness_pair_fn(uniform_measure(500), uniform_measure(500), config),
        "far": closeness_pair_fn(uniform_measure(500), half_flat_measure(500), config),
    }
    for i in range(10):
        _, p, q = draw_meta_closeness(500, 100, 0.3, ROOT.substream("c2-inst", i))
        settings[f"hard-{i}"] = closeness_pair_fn(p.normalized(), q.normalized(), config)
    results = {}
    for label, fn in settings.items():
        res = measure_replicability(fn, pairs, ROOT.substream("c2", label))
        results[label] = res
        if res.rate > worst[1]:
            worst = (label, res.rate, res.stderr)
    elapsed = time.perf_counter() - started
    ok = all(r.rate <= rho + 3 * r.stderr for r in results.values()) and elapsed <= 300.0
    _report(2, "closeness replicability", ok,
            f"worst disagreement {worst[1]:.3f} (+3se bound {rho + 3 * worst[2]:.3f}) "
            f"on {worst[0]}; {len(settings)} settings x {pairs} pairs, "
            f"runtime={elapsed:.1f}s<=300s", started)


def test_criterion_03_variance_bound():
    started = time.perf_counter()
    details = []
    ok = True
    for n in (100, 500):
        for instance in ("uniform", "zipf"):
            audit = _variance_audit(n, instance)
            ratio = audit["var"] / audit["m"]
            ok &= audit["var"] <= 4.8 * audit["m"]
            details.append(f"n={n}/{instance}: Var(Z)={audit['var']:.0f} "
                           f"({ratio:.2f}m <= 4.8m)")
    _report(3, "closeness variance bound", ok, "; ".join(details), started)


def test_criterion_04_completeness_mean():
    started = time.perf_counter()
    details = []
    ok = True
    for n in (100, 500):
        for instance in ("uniform", "zipf"):
            audit = _variance_audit(n, instance)
            bound = audit["c1"] * math.sqrt(audit["m"]) + 3 * audit["sem"]
            ok &= audit["mean"] <= bound
            details.append(f"n={n}/{instance}: mean={audit['mean']:.2f} <= {bound:.1f}")
    _report(4, "closeness completeness mean", ok, "; ".join(details), started)


def test_criterion_05_heavy_bin_splitting():
    started = time.perf_counter()
    n, alpha, samples, trials = 200, 0.1, 2000, 1000
    bound = 20.0 / alpha * math.log(n)
    stream = ROOT.substream("c5")
    values = np.empty(trials)
    element = np.zeros(samples, dtype=np.int64)
    for t in range(trials):
        assignment = FlattenAssignment.random(samples, alpha, stream.substream(t))
        values[t] = max_subbin_count(flatten_1d(element, assignment))
    fraction = float((values <= bound).mean())
    tight = float((values <= 6.0 / alpha * math.log(n)).mean())
    ok = fraction >= 0.99
    _report(5, "heavy-bin splitting", ok,
            f"P(max sub-bin <= {bound:.0f}) = {fraction:.3f} >= 0.99 "
            f"(max observed {values.max():.0f}; within 6/alpha*ln n: {tight:.3f})",
            started)


def test_criterion_06_singleton_invariance():
    started = time.perf_counter()
    gen = ROOT.substream("c6").generator()
    checked = 0
    exact = True
    while checked < 50:
        size = int(gen.integers(4, 13))
        cells = [(int(r), int(c)) for r, c in gen.integers(0, 3, size=(size, 2))]
        split = int(gen.integers(0, size + 1))
        sp, sq = cells[:split], cells[split:]
        counts = Counter(cells)
        singletons = [e for e, c in counts.items() if c == 1]
        if not singletons:
            continue
        victim = singletons[int(gen.integers(0, len(singletons)))]
        if victim in sp:
            sp_after = [e for e in sp if e != victim]
            sq_after = list(sq)
        else:
            sp_after = list(sp)
            sq_after = [e for e in sq if e != victim]
        # E over 2^k markings is sum/2^k; exact equality iff the integer
        # sums match after accounting for the lost marking bit
        before = zc_marking_sum(sp, sq)
        after = zc_marking_sum(sp_after, sq_after)
        exact &= before == 2 * after
        checked += 1
    elapsed = time.perf_counter() - started
    ok = exact and elapsed <= 60.0
    _report(6, "singleton invariance (exact enumeration)", ok,
            f"50 instances, exact equality={exact}, runtime={elapsed:.1f}s<=60s",
            started)


def test_criterion_07_estimators_match_enumeration():
    started = time.perf_counter()
    config = IndependenceConfig(n1=4, n2=4, epsilon=0.35, rho=0.2)
    k_avg = 10**5
    cases = {
        # flattening disabled: orders are irrelevant, enumeration is direct
        "alpha=0": (
            [(0, 0), (0, 0), (0, 1), (1, 1)],
            [(0, 0), (1, 1), (2, 2), (0, 1)],
            dict(alpha=0.0, beta=0.0, poisson_mean=3.0),
        ),
        # full enumeration over selectors and both axis orders
        "alpha=0.3": (
            [(0, 0), (0, 0)],
            [(0, 0), (1, 1)],
            dict(alpha=0.3, beta=0.3, poisson_mean=1.5),
        ),
    }
    details = []
    ok = True
    for label, (sp, sq, kw) in cases.items():
        exact_z, exact_n = enumerate_independence_means(
            sp, sq, kw["alpha"], kw["beta"], kw["poisson_mean"],
            abort_excess_p=40.0, abort_excess_q=40.0,
        )
        sp_arr, sq_arr = np.array(sp), np.array(sq)
        run_kw = dict(strict_size=False, **kw)
        stream = ROOT.substream("c7", label)
        est_z, est_n = averaged_stats(sp_arr, sq_arr, config, stream.substream("avg"),
                                      k_avg=k_avg, **run_kw)
        pilot = np.array([
            averaged_stats(sp_arr, sq_arr, config, stream.substream("pilot", j),
                           k_avg=1, **run_kw)[0]
            for j in range(2000)
        ], dtype=float)
        se_z = pilot.std(ddof=1) / math.sqrt(k_avg)
        # N shares the run distribution; bound its se by the Z pilot spread
        # plus the exact-N scale (N <= total samples)
        se_n = max(se_z, len(sp + sq) / math.sqrt(k_avg))
        ok_z = abs(est_z - exact_z) <= 3 * se_z
        ok_n = abs(est_n - exact_n) <= 3 * se_n
        ok &= ok_z and ok_n
        details.append(
            f"{label}: Z {est_z:+.4f} vs {exact_z:+.4f} (3se={3 * se_z:.4f}), "
            f"N {est_n:.4f} vs {exact_n:.4f} (3se={3 * se_n:.4f})"
        )
    _report(7, "averaged-statistic estimators vs enumeration", ok,
            "; ".join(details), started)


def test_criterion_08_product_non_singleton_bound():
    started = time.perf_counter()
    details = []
    ok = True
    for n1, n2 in ((20, 10), (40, 20)):
        config = IndependenceConfig(n1=n1, n2=n2, epsilon=0.35, rho=0.2,
                                    **INDEPENDENCE_DESK)
        m = config.sample_size()
        sampler = measure_sampler(uniform_product_measure(n1, n2))
        stream = ROOT.substream("c8", n1)
        values = np.empty(500)
        for t in range(500):
            _, values[t] = sampled_averaged_stats(
                sampler, config, stream.substream(t), stream.substream("r", t), k_avg=1
            )
        bound = config.c_n * stage1_scale(m, n1, n2)
        ok &= values.mean() <= bound
        details.append(f"({n1},{n2}): E[N]={values.mean():.1f} <= {bound:.1f}")
    _report(8, "product non-singleton count bound", ok, "; ".join(details), started)


def test_criterion_09_variance_by_collisions():
    started = time.perf_counter()
    details = []
    ok = True
    k_avg = 32
    for n1, n2 in ((20, 10), (40, 20)):
        config = IndependenceConfig(n1=n1, n2=n2, epsilon=0.35, rho=0.2,
                                    **{**INDEPENDENCE_DESK, "k_avg": k_avg})
        sampler = measure_sampler(uniform_product_measure(n1, n2))
        stream = ROOT.substream("c9", n1)
        z_hats = np.empty(500)
        n_hats = np.empty(500)
        for t in range(500):
            z_hats[t], n_hats[t] = sampled_averaged_stats(
                sampler, config, stream.substream(t), stream.substream("avg", t)
            )
        bound = VARIANCE_RATIO_C * math.log(n1 * n2) ** 3
        ratio_z = z_hats.var(ddof=1) / n_hats.mean()
        ratio_n = n_hats.var(ddof=1) / n_hats.mean()
        ok &= ratio_z <= bound and ratio_n <= bound
        details.append(
            f"({n1},{n2}): Var(Z_a)/E[N_a]={ratio_z:.3f}, "
            f"Var(N_a)/E[N_a]={ratio_n:.3f} <= {bound:.0f} (K_avg={k_avg})"
        )
    _report(9, "variance bounded by collisions", ok, "; ".join(details), started)


def test_criterion_10_independence_correctness():
    started = time.perf_counter()
    trials = 100
    accept_config = IndependenceConfig(n1=40, n2=20, epsilon=0.35, rho=0.2,
                                       **INDEPENDENCE_DESK)
    reject_config = IndependenceConfig(n1=20, n2=20, epsilon=0.35, rho=0.2,
                                       **INDEPENDENCE_DESK)
    product = uniform_product_measure(40, 20)
    diagonal = diagonal_measure(20)
    stream = ROOT.substream("c10")
    accepts = sum(
        rep_independence_test(product, accept_config, stream.substream("a", t)).accept
        for t in range(trials)
    )
    rejects = sum(
        not rep_independence_test(diagonal, reject_config, stream.substream("r", t)).accept
        for t in range(trials)
    )
    elapsed = time.perf_counter() - started
    ok = accepts / trials >= 2 / 3 and rejects / trials >= 2 / 3 and elapsed <= 900.0
    _report(10, "independence correctness", ok,
            f"accept(product)={accepts / trials:.2f}, reject(diagonal)={rejects / trials:.2f} "
            f">= 2/3, runtime={elapsed:.1f}s<=900s", started)


def test_criterion_11_kernel_exactness():
    started = time.perf_counter()
    worst_row, worst_pi, worst_db = 0.0, 0.0, 0.0
    states = np.arange(51, dtype=np.float64)
    for m, n in ((1, 10), (10, 10), (20, 10)):
        for xi in (0.0, 0.1, 0.24):
            kernel = CoordKernel(m=m, n=n, xi=xi, a_max=200)
            cols = np.arange(201, dtype=np.float64)
            matrix = kernel.transition(states[:, None], cols[None, :])
            worst_row = max(worst_row, float(np.abs(matrix.sum(axis=1) - 1).max()))
            pi_full = kernel.stationary(cols)
            worst_pi = max(worst_pi, abs(float(pi_full.sum()) - 1.0))
            small = kernel.transition(states[:, None], states[None, :])
            pi = kernel.stationary(states)
            flow = pi[:, None] * small
            rel = np.abs(flow - flow.T) / np.maximum(np.abs(flow), 1e-300)
            worst_db = max(worst_db, float(rel.max()))
    pair_states = 30
    for xi in (0.0, 0.1, 0.2):
        kernel = ClosenessPairKernel(n=100, m=10, epsilon=0.24, xi=xi, a_max=pair_states)
        matrix = kernel.transition_matrix()
        worst_row = max(worst_row, float(np.abs(matrix.sum(axis=1) - 1).max()))
        pi = kernel.stationary_vector()
        worst_pi = max(worst_pi, abs(float(pi.sum()) - 1.0))
        flow = pi[:, None] * matrix
        rel = np.abs(flow - flow.T) / np.maximum(np.abs(flow), 1e-300)
        worst_db = max(worst_db, float(rel.max()))
    ok = worst_row <= 1e-9 and worst_pi <= 1e-9 and worst_db <= 1e-10
    _report(11, "kernel exactness", ok,
            f"max |row sum - 1| = {worst_row:.2e} <= 1e-9, "
            f"max |sum pi - 1| = {worst_pi:.2e} <= 1e-9, "
            f"max detailed-balance rel err = {worst_db:.2e} <= 1e-10", started)


def test_criterion_12_coordinate_mixing():
    started = time.perf_counter()
    kernel = CoordKernel(m=100, n=1000, xi=0.2, a_max=60)
    report = estimate_mixing(kernel, 0.04, initial="poisson", max_steps=40)
    tau_004 = report.tau_delta
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    taus = [estimate_mixing(kernel, d, initial="poisson", max_steps=40).tau_delta
            for d in deltas]
    # geometric-decay certificate: log l1 vs t is linear, so tau(delta)
    # is bounded by a line in log(1/delta)
    curve = [(t, tv) for t, tv in report.tv_curve if tv > 1e-10]
    ts = np.array([t for t, _ in curve], dtype=float)
    logs = np.log([tv for _, tv in curve])
    slope, intercept = np.polyfit(ts, logs, 1)
    predicted = intercept + slope * ts
    ss_res = float(((logs - predicted) ** 2).sum())
    ss_tot = float(((logs - logs.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    envelope = [math.ceil((math.log(d) - intercept) / slope) + 1 for d in deltas]
    within = all(tau <= env for tau, env in zip(taus, envelope))
    monotone = taus == sorted(taus)
    ok = (
        tau_004 <= 2
        and slope < 0
        and r_squared >= 0.95
        and within
        and monotone
    )
    _report(12, "coordinate mixing", ok,
            f"tau(0.04)={tau_004}<=2 (poisson initials); decay fit R^2={r_squared:.4f}"
            f">=0.95, slope={slope:.2f}; tau{deltas}={taus} under envelope {envelope}",
            started)


def test_criterion_13_product_walk_mixing():
    started = time.perf_counter()
    kernels = [
        CoordKernel(m=3, n=10, xi=0.2, a_max=14),
        CoordKernel(m=5, n=10, xi=0.15, a_max=14),
        CoordKernel(m=10, n=10, xi=0.1, a_max=14),
    ]
    delta = 0.05
    tau_full = product_walk_tau(kernels, delta, max_steps=25)
    per_coordinate = [
        estimate_mixing(k, delta / 3, initial="point", max_steps=25).tau_delta
        for k in kernels
    ]
    ok = tau_full <= max(per_coordinate)
    _report(13, "product-walk mixing bound", ok,
            f"tau_full({delta})={tau_full} <= max_i tau_i({delta}/3)={max(per_coordinate)} "
            f"(3 coordinates, 15-state truncation)", started)


def test_criterion_14_sampler_kernel_agreement():
    started = time.perf_counter()
    kernel = CoordKernel(m=100, n=1000, xi=0.2, a_max=40)
    steps = 10**6
    cols = np.arange(kernel.a_max + 1, dtype=np.float64)
    p_values = []
    for a in (0, 2, 8):
        draws = np.asarray(
            kernel.step(np.full(steps, a, dtype=np.int64), ROOT.substream("c14", a))
        )
        expected = kernel.transition(np.float64(a), cols) * steps
        observed = np.bincount(draws, minlength=cols.size).astype(float)
        cut = expected.size - int(np.argmax(np.cumsum(expected[::-1]) >= 5.0))
        obs = np.r_[observed[: cut - 1], observed[cut - 1:].sum()]
        exp = np.r_[expected[: cut - 1], expected[cut - 1:].sum()]
        result = stats.chisquare(obs, exp * obs.sum() / exp.sum())
        p_values.append(float(result.pvalue))
    ok = all(p >= 1e-3 for p in p_values)
    _report(14, "sampler-kernel agreement", ok,
            f"chi-square p-values {[f'{p:.3f}' for p in p_values]} all >= 1e-3 "
            f"(10^6 steps from states 0, 2, 8)", started)


def test_criterion_15_undersampled_non_replicability():
    started = time.perf_counter()
    n, epsilon, rho = 2000, 0.25, 0.1
    full = UniformityConfig(n=n, epsilon=epsilon, rho=rho, **UNIFORMITY_DESK)
    reduced = UniformityConfig(n=n, epsilon=epsilon, rho=rho,
                               **{**UNIFORMITY_DESK, "m_scale": 0.05})
    assert full.is_calibrated() and not reduced.is_calibrated()
    xi_grid = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25]
    pairs = 300
    rates = []
    for xi in xi_grid:
        res = measure_replicability(
            uniformity_meta_pair_fn(n, epsilon, reduced, xi),
            pairs, ROOT.substream("c15", xi),
        )
        rates.append(res.rate)
    exceed = [xi for xi, r in zip(xi_grid, rates) if r >= rho]
    # reference point at full budget, away from the knife edge
    full_res = measure_replicability(
        uniformity_meta_pair_fn(n, epsilon, full, 0.0), pairs,
        ROOT.substream("c15-full"),
    )
    ok = len(exceed) > 0
    _report(15, "under-sampled non-replicability demonstration", ok,
            f"5% budget (m={reduced.sample_size()}): disagreement "
            f"{[f'{r:.2f}' for r in rates]} on xi grid {xi_grid}; "
            f">= rho={rho} on [{min(exceed)}, {max(exceed)}]; "
            f"full budget at xi=0: {full_res.rate:.3f}", started)
