import random
from fractions import Fraction

import pytest

from liftgap.boolfn import (BoolFn, Density, FourierCoeffs,
                            fourier_transform, junta_support, mask_of)
from liftgap.csp import cycle
from liftgap.errors import (ExhaustedError, InputError, ParameterError,
                            SizeCapError)
from liftgap.restriction import (antidiagonal_restriction, check_restriction,
                                 decompose_restricted_density,
                                 detect_symmetric_structure, epsilon_formula,
                                 find_good_restriction,
                                 main_inequality_experiment,
                                 main_report_to_json, restriction_gamma,
                                 restriction_report_to_json,
                                 sample_restriction, smoothness_exponent,
                                 symmetric_contradiction_check,
                                 symmetric_report_to_json, trial_seed)
from liftgap.rationals import QuarticThreshold
from liftgap.sa import pe_apply, sa_value
from liftgap.slack import metric_maxcut, universal

F = Fraction


def test_sample_restriction_deterministic():
    a = sample_restriction(12, 3, seed=7)
    b = sample_restriction(12, 3, seed=7)
    assert a == b and len(a) == 3
    assert all(1 <= i <= 12 for i in a)


def test_sample_restriction_terminates_across_seeds():
    for seed in range(100):
        assert len(sample_restriction(16, 4, seed)) == 4


def test_sample_restriction_distinct_seeds():
    draws = {sample_restriction(48, 12, seed) for seed in range(100)}
    assert len(draws) >= 90


def test_sample_restriction_parameter_range():
    with pytest.raises(ParameterError):
        sample_restriction(12, 2, 1)
    with pytest.raises(ParameterError):
        sample_restriction(12, 4, 1)


def test_trial_seed_schedule():
    assert trial_seed(5, 0) == 5
    assert trial_seed(5, 1) != trial_seed(5, 2)
    assert trial_seed(5, 1) < 1 << 64


def test_smoothness_exponent():
    assert smoothness_exponent(12, 2) == 8   # 2^8 = 256 >= 144
    assert smoothness_exponent(16, 2) == 8   # 2^8 = 256 >= 256
    assert smoothness_exponent(4, 1) == 2


def test_check_restriction_uniform():
    uniform = Density(BoolFn.constant(12, 1))
    S = sample_restriction(12, 3, 1)
    report = check_restriction([uniform], S, 2, 8, 3, 12)
    rec = report.records[0]
    assert rec.junta == frozenset() and rec.passed
    assert report.all_passed and report.family_size_ok


def test_check_restriction_dictator_outside_s():
    dictator = Density(BoolFn(12, [F(0) if i & 1 else F(2)
                                   for i in range(1 << 12)]))
    S = frozenset({5, 7, 9})
    report = check_restriction([dictator], S, 2, 8, 3, 12)
    rec = report.records[0]
    assert rec.max_bad_coeff == 0 and rec.passed_coeff_bound


def block_density(n: int, block: tuple[int, ...]) -> Density:
    """2^|block| times the indicator that every block coordinate is +1."""
    mask = mask_of(block, n)
    scale = F(1 << len(block))
    return Density(BoolFn(n, [scale if x & mask == 0 else F(0)
                              for x in range(1 << n)]))


def test_block_family_has_good_restriction():
    n, m, d = 16, 4, 2
    blocks = [(1, 2), (5, 6), (9, 10), (13, 14)]
    family = [block_density(n, b) for b in blocks]
    t = 2  # sup norm of each block density is 4 = 2^2
    S, report = find_good_restriction(family, n, m, d, t,
                                      max_trials=10, seed=3)
    assert report.all_passed and report.trials_used <= 10
    assert len(S) == m


def test_find_good_restriction_surfaces_hypothesis_errors():
    # sup norm 256 > 2^t: the smoothness hypothesis fails, which is
    # surfaced per density without aborting the search (the junta and
    # coefficient bounds themselves still pass at desk scale, where
    # gamma > 1)
    n = 16
    spiky = block_density(n, (1, 2, 3, 4, 5, 6, 7, 8))
    S, report = find_good_restriction([spiky], n, 4, 2, 2,
                                      max_trials=3, seed=1)
    assert report.all_passed
    assert report.records[0].hypothesis_error is not None
    assert "sup norm" in report.records[0].hypothesis_error


def test_find_good_restriction_exhaustion(monkeypatch):
    # shrink gamma below the coefficient scale so every trial fails the
    # junta bound; the error carries the best report seen
    import liftgap.restriction as restriction_module
    monkeypatch.setattr(restriction_module, "restriction_gamma",
                        lambda n, m, d, t: QuarticThreshold(F(1, 100) ** 4))
    n = 16
    # every singleton coefficient is 1/32 > 1/100, and all 16 singletons
    # are independent: the extracted junta meets every sample
    table = [F(1) + F(16 - 2 * bin(x).count("1"), 32) for x in range(1 << n)]
    tilted = Density(BoolFn(n, table))
    with pytest.raises(ExhaustedError) as err:
        find_good_restriction([tilted], n, 4, 2, 2, max_trials=3, seed=1)
    best = err.value.best_report
    assert best is not None and not best.all_passed
    assert not best.records[0].passed_junta_bound


def test_restriction_gamma_is_exact_fourth_power():
    gamma = restriction_gamma(12, 3, 2, 8)
    assert gamma.fourth_power == F((16 * 3 * 8 * 2) ** 2, 12)


def test_decompose_uniform_has_zero_error():
    uniform = Density(BoolFn.constant(4, 1))
    junta, err = decompose_restricted_density(uniform, {1, 2}, {1})
    assert junta.fn == BoolFn.constant(4, 1)
    assert err.coeffs == {}


def test_decompose_product_density():
    # (1 + x1)(1 + x2) on 2 variables; S = {1,2}, J = {1}
    prod = Density(BoolFn(2, [F(4), F(0), F(0), F(0)]))
    junta, err = decompose_restricted_density(prod, {1, 2}, {1})
    assert fourier_transform(junta.fn).coeffs == {0: F(1), 0b01: F(1)}
    assert err.coeffs == {0b10: F(1), 0b11: F(1)}


def test_decompose_requires_nested_sets():
    with pytest.raises(InputError):
        decompose_restricted_density(Density(BoolFn.constant(3, 1)), {1}, {2})


def test_decompose_linearity_under_functional():
    prod = Density(BoolFn(4, [F(4) if x & 0b11 == 0 else F(0)
                              for x in range(16)]))
    junta, err = decompose_restricted_density(prod, {1, 2}, {1})
    _, pe = sa_value(cycle(4), 2)
    s_mask = mask_of({1, 2}, 4)
    conditional = FourierCoeffs(4, {
        a: v for a, v in fourier_transform(prod.fn).coeffs.items()
        if a & ~s_mask == 0})
    lhs = pe_apply(pe, conditional)
    assert lhs == pe_apply(pe, junta.fn) + pe_apply(pe, err)


def test_epsilon_formula_decreasing():
    assert epsilon_formula(12, 3, 2) > epsilon_formula(16, 3, 2)


def test_main_experiment_universal_relaxation():
    # the relaxation value is the level-d value, so planting changes
    # nothing and the left side is exactly zero
    report = main_inequality_experiment(universal(12, 2), cycle(3), 2, seed=1)
    assert report.lhs == 0
    assert report.holds and report.rhs < 0
    assert report.dropped_slacks == (0, 1)  # the two normalization rows


def test_main_experiment_metric12():
    report = main_inequality_experiment(metric_maxcut(12), cycle(3), 2, seed=1)
    assert report.holds
    assert report.lp_planted == F(2, 3)
    assert report.sa_base == 1
    assert report.lhs == F(2, 3) - 1
    assert not report.slack_count_ok  # 1012 slack rows exceed n^(d/2) = 12
    assert report.smooth_count == 1012
    for term in report.error_terms:
        assert term.within_coeff_cap and term.within_gamma_cap
    text = main_report_to_json(report)
    assert '"holds": true' in text


def test_main_experiment_guards():
    with pytest.raises(ParameterError):
        main_inequality_experiment(metric_maxcut(8), cycle(3), 2, seed=1)


def test_detect_level_function():
    f = BoolFn(6, [F(6 - 2 * bin(x).count("1")) for x in range(64)])
    st = detect_symmetric_structure(f, 1)
    assert st.found and st.junta == frozenset()


def test_detect_junta_with_level():
    f = BoolFn(6, [F((1 - 2 * (x & 1)) * (7 - 2 * bin(x).count("1")))
                   for x in range(64)])
    st = detect_symmetric_structure(f, 1)
    assert st.found and st.junta == {1}
    # the recovered table reproduces the function
    for x in range(64):
        assert st.table[(x & 1, 6 - 2 * bin(x).count("1"))] == f.values[x]


def test_detect_character_pair_fails_at_dmax_one():
    chi = BoolFn.character(5, [1, 2])
    st = detect_symmetric_structure(chi, 1)
    assert not st.found


def test_detect_refuses_large_dmax():
    with pytest.raises(ParameterError):
        detect_symmetric_structure(BoolFn.constant(8, 0), 2)


def test_detect_size_cap():
    with pytest.raises(SizeCapError):
        detect_symmetric_structure(BoolFn.constant(17, 0), 1)


def test_antidiagonal_constant_and_level():
    const = BoolFn.constant(4, 3)
    assert antidiagonal_restriction(const) == BoolFn.constant(2, 3)
    level = BoolFn(6, [F(5 + (6 - 2 * bin(x).count("1")) ** 2)
                       for x in range(64)])
    h = antidiagonal_restriction(level)
    assert h == BoolFn.constant(3, 5)  # the level collapses to 0


def test_antidiagonal_cross_pair():
    # q = x1 * x4 * g(sum) on 6 variables with g(0) = 2:
    # h(x) = x1 * (-x1) * g(0) = -2, constant
    def g(level):
        return F(level * level + 2)
    table = []
    for x in range(64):
        x1 = -1 if x & 1 else 1
        x4 = -1 if x >> 3 & 1 else 1
        table.append(x1 * x4 * g(6 - 2 * bin(x).count("1")))
    h = antidiagonal_restriction(BoolFn(6, table))
    assert h == BoolFn.constant(3, -2)


def test_antidiagonal_needs_even():
    with pytest.raises(InputError):
        antidiagonal_restriction(BoolFn.constant(3, 1))


def test_antidiagonal_of_structured_is_junta():
    rng = random.Random(0)
    for _ in range(5):
        j = rng.randrange(1, 9)
        table = {}
        f_vals = []
        for x in range(256):
            key = (x >> (j - 1) & 1, 8 - 2 * bin(x).count("1"))
            if key not in table:
                table[key] = F(rng.randrange(-4, 5))
            f_vals.append(table[key])
        f = BoolFn(8, f_vals)
        h = antidiagonal_restriction(f)
        mapped = j if j <= 4 else j - 4
        assert junta_support(h) <= {mapped}


def test_symmetric_check_c_one_feasible():
    tri = cycle(3)
    rel = universal(6, 2)
    report = symmetric_contradiction_check(tri, rel, F(1), 2)
    assert report.closure_ok and report.decomposition_feasible
    assert report.identity_checked
    assert report.consistent and report.c_minus_sa == 0
    assert all(r.is_small_junta for r in report.slack_records)
    assert all(r.pe_value >= 0 for r in report.slack_records)
    assert '"consistent": true' in symmetric_report_to_json(report)


def test_symmetric_check_below_value_infeasible():
    tri = cycle(3)
    rel = universal(6, 2)
    c = sa_value(tri, 2)[0] - F(1, 100)
    report = symmetric_contradiction_check(tri, rel, c, 2)
    assert not report.decomposition_feasible
    assert report.consistent and report.c_minus_sa < 0


def test_symmetric_check_requires_doubled_relaxation():
    with pytest.raises(InputError):
        symmetric_contradiction_check(cycle(3), universal(4, 2), F(1), 2)


def test_restriction_report_json():
    uniform = Density(BoolFn.constant(12, 1))
    S = sample_restriction(12, 3, 1)
    report = check_restriction([uniform], S, 2, 8, 3, 12)
    text = restriction_report_to_json(report, master_seed=1)
    assert '"seed": 1' in text and '"allPassed": true' in text
