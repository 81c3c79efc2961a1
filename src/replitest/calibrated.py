"""Desk-scale calibrated constants; the one table of tester defaults.

Checked by ``replitest calibrate`` audits at the configurations used in
the acceptance experiments; see README. The theory only asserts that
sufficiently large constants exist, so these are empirical choices with
comfortable margins at desk scale, and every tester accepts user
overrides. The tester configs take their constant defaults from here,
so the library defaults differ from these desk values only in the
independence ``k_avg`` (200) and ``m_scale`` (1.0).
"""

CLOSENESS_DESK = {
    # n=500 / n=100, epsilon=0.3, rho=0.1
    "c1": 2.0,
    "c2": 3.0,
    "m_scale": 1.0,
}

UNIFORMITY_DESK = {
    # n=500..2000, epsilon=0.25..0.3, rho=0.1
    "c1_u": 1.0,
    "c2_u": 0.5,
    "m_scale": 1.0,
}

INDEPENDENCE_DESK = {
    # (n1, n2) in {(20,10), (40,20), (20,20)}, epsilon=0.35, rho=0.2
    "c_n": 4.0,
    "c_i1": 1.0,
    "c_i2": 4.0,
    # Desk overrides of the library's k_avg=200 and m_scale=1. At full
    # budget (40, 20) has m=11,598: sample sets of 1.16M pairs, of which
    # the 200 statistic runs per set read about 24,000. 5% of the budget
    # and 50 runs keep the acceptance criteria's hundreds of verdicts fast.
    "k_avg": 50,
    "median_reps": 1,
    "m_scale": 0.05,
}

# Fitted constant for the variance-vs-collision ratio checks
# Var(Z_a)/E[N_a] <= c * log^3(n1 n2) and Var(N_a)/E[N_a] <= c * log^3(n1 n2),
# measured at the desk grids above with 3x headroom over the observed max.
VARIANCE_RATIO_C = 1.0
