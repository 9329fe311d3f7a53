import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from liftgap.boolfn import (BoolFn, Density, FourierCoeffs,
                            fourier_transform, inverse_transform,
                            junta_support, mask_of)
from liftgap.csp import cycle
from liftgap.errors import (ExhaustedError, HypothesisError, InputError,
                            InternalError, ParameterError, SizeCapError)
from liftgap.restriction import (antidiagonal_restriction, check_restriction,
                                 detect_symmetric_structure, epsilon_formula,
                                 find_good_restriction,
                                 main_inequality_experiment,
                                 main_report_to_json, restriction_gamma,
                                 restriction_report_to_json,
                                 sample_restriction, smoothness_exponent,
                                 symmetric_contradiction_check,
                                 symmetric_report_to_json, trial_seed,
                                 verify_symmetry_closure)
from liftgap.rationals import QuarticThreshold
from liftgap.sa import pe_apply, sa_value
from liftgap.slack import metric_maxcut, slack_functions, universal

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


def test_decompose_linearity_under_functional():
    # the conditional of q on S = {1, 2} splits into its junta part on
    # J = {1}, as a table, and the coefficients inside S outside J
    prod = Density(BoolFn(4, [F(4) if x & 0b11 == 0 else F(0)
                              for x in range(16)]))
    coeffs = fourier_transform(prod.fn).coeffs
    junta = inverse_transform(FourierCoeffs(4, {
        a: v for a, v in coeffs.items() if a & ~0b01 == 0}))
    err = FourierCoeffs(4, {a: v for a, v in coeffs.items()
                            if a & ~0b11 == 0 and a & ~0b01})
    conditional = FourierCoeffs(4, {a: v for a, v in coeffs.items()
                                    if a & ~0b11 == 0})
    _, pe = sa_value(cycle(4), 2)
    assert err.coeffs == {0b10: F(1), 0b11: F(1)}
    assert pe_apply(pe, conditional) == pe_apply(pe, junta) + pe_apply(pe, err)


def test_epsilon_formula_decreasing():
    assert epsilon_formula(12, 3, 2) > epsilon_formula(16, 3, 2)


def test_main_experiment_universal_relaxation():
    # the relaxation value is the level-d value, so planting changes
    # nothing and the left side is exactly zero
    report = main_inequality_experiment(universal(12, 2), cycle(3), 2, seed=1)
    assert report.lhs == 0
    assert report.holds and report.rhs < 0
    assert report.dropped_slacks == (0, 1)  # the two normalization rows


def test_main_experiment_reads_no_slack_table():
    # means, nonnegativity, smoothness and junta extraction all come from
    # the slacks' spectra and carried facts: a pass over a table would
    # build it
    rel = universal(12, 2)
    report = main_inequality_experiment(rel, cycle(3), 2, seed=7)
    assert report.holds and report.rough_count == 0
    slacks = slack_functions(rel)
    assert len(slacks) == 291
    assert all(q._nums is None and q._values is None for q in slacks)


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
    assert all(r.is_small_junta for r in report.slacks)
    assert all(r.pe_value >= 0 for r in report.slacks)
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


def test_symmetric_check_feasible_below_value_is_hypothesis_error():
    # metric(6) and universal(6,3) decompose c - C3 at c = 99/100 < 1
    # through a slack whose antidiagonal restriction depends on all three
    # coordinates: the contradiction's hypothesis fails, not the code
    for rel, label in ((metric_maxcut(6), "(y(1, 2)+y(1, 3)+y(2, 3)<=2)"),
                       (universal(6, 3), "(ind(S=7,a=0))")):
        with pytest.raises(HypothesisError, match=r"3 > d = 2") as err:
            symmetric_contradiction_check(cycle(3), rel, F(99, 100), 2)
        assert label in str(err.value)


def test_symmetric_check_small_junta_inconsistency_is_internal(monkeypatch):
    # every slack of universal(6,2) restricts to a small junta, so a
    # feasible decomposition below the level-d value would be a bug
    import liftgap.restriction as restriction_module

    def raised_value(inst, d):
        value, pe = sa_value(inst, d)
        return value + 1, pe

    monkeypatch.setattr(restriction_module, "sa_value", raised_value)
    with pytest.raises(InternalError, match="inconsistent"):
        symmetric_contradiction_check(cycle(3), universal(6, 2), F(1), 2)


def _position_index(perm) -> list[int]:
    """The position a table is read at, for each position x, under the
    permutation moving coordinate i + 1 to perm[i]."""
    n = len(perm)
    return [sum(1 << i for i in range(n) if x >> (perm[i] - 1) & 1)
            for x in range(1 << n)]


def _permuted(q: BoolFn, perm) -> BoolFn:
    """q under the permutation, read as _reference_closed reads it."""
    return BoolFn.from_ints(q.n, [q.nums[y] for y in _position_index(perm)],
                            q.den)


def _reference_closed(slacks, perms) -> bool:
    """The whole-table check: every slack read through every permuted
    position index is a table of the family."""
    family = {(q.den, q.nums) for q in slacks}
    for perm in perms:
        index = _position_index(perm)
        for q in slacks:
            if (q.den, tuple(q.nums[y] for y in index)) not in family:
                return False
    return True


def _reference_closure(slacks, n) -> tuple[int, bool]:
    if n <= 6:
        perms = list(itertools.permutations(range(1, n + 1)))
    else:
        perms = [tuple(range(2, n + 1)) + (1,), (2, 1) + tuple(range(3, n + 1))]
    return len(perms), _reference_closed(slacks, perms)


_CLOSURE_FAMILIES = {
    "universal(6,1)": lambda: universal(6, 1),
    "universal(6,2)": lambda: universal(6, 2),
    "universal(6,3)": lambda: universal(6, 3),
    "metric(6)": lambda: metric_maxcut(6),
    "universal(4,2)": lambda: universal(4, 2),
}


@functools.lru_cache(maxsize=None)
def _closure_family(name: str) -> tuple[BoolFn, ...]:
    return tuple(slack_functions(_CLOSURE_FAMILIES[name]()))


@pytest.mark.parametrize("name", sorted(_CLOSURE_FAMILIES))
def test_symmetry_closure_matches_whole_tables(name):
    slacks = _closure_family(name)
    n = slacks[0].n
    assert verify_symmetry_closure(slacks, n) == \
        _reference_closure(slacks, n) == (math.factorial(n), True)


@pytest.mark.parametrize("name", sorted(_CLOSURE_FAMILIES))
def test_symmetry_closure_reads_cached_spectra(name):
    # the closure reads each slack's cached spectrum, whose scale may be a
    # multiple of den << n (a row's unreduced scale, or a factor's
    # denominator after scaled): with every other slack a fresh copy,
    # which has none cached, an image keyed at the wrong scale is missed
    slacks = _closure_family(name)
    n = slacks[0].n
    expected = (math.factorial(n), True)
    for factor in (1, F(1, 2), F(3, 4), F(-5)):
        family = [q.scaled(factor) for q in slacks]
        assert all(q._spectrum is not None for q in family)
        fresh = [BoolFn.from_ints(n, q.nums, q.den) for q in family]
        mixed = [p if i % 2 else q
                 for i, (p, q) in enumerate(zip(fresh, family))]
        assert verify_symmetry_closure(mixed, n) == expected, factor
        assert verify_symmetry_closure(fresh, n) == expected, factor


def test_symmetry_closure_matches_whole_tables_on_perturbations():
    outcomes = []
    for seed in range(66):
        rng = random.Random(seed)
        slacks = list(_closure_family(rng.choice(sorted(_CLOSURE_FAMILIES))))
        n = slacks[0].n
        kind = seed % 3
        if kind == 0:
            del slacks[rng.randrange(len(slacks))]
        elif kind == 1:
            i = rng.randrange(len(slacks))
            nums = list(slacks[i].nums)
            nums[rng.randrange(1 << n)] += rng.choice((-1, 1))
            slacks[i] = BoolFn.from_ints(n, nums, slacks[i].den)
        else:
            cycle_perm = tuple(range(2, n + 1)) + (1,)
            swap = (2, 1) + tuple(range(3, n + 1))
            picked = [q for q in rng.sample(slacks, 3)
                      if not _reference_closed([q], [cycle_perm])]
            slacks = picked + [_permuted(q, swap) for q in picked]
            assert _reference_closed(slacks, [swap])
            assert not _reference_closed(slacks, [cycle_perm])
        result = verify_symmetry_closure(slacks, n)
        assert result == _reference_closure(slacks, n), seed
        outcomes.append(result[1])
    assert outcomes.count(False) >= 40


def test_symmetry_closure_generators_above_six():
    slacks = slack_functions(universal(8, 2))
    assert verify_symmetry_closure(slacks, 8) == (2, True)
    dropped = [q for q in slacks if q != slacks[3]]  # ind(S=1,a=0)
    assert verify_symmetry_closure(dropped, 8) == (2, False)
    assert _reference_closure(dropped, 8) == (2, False)


def _orbit(q: BoolFn) -> list[BoolFn]:
    """q's distinct images under all permutations, in a fixed order."""
    images = {_permuted(q, perm)
              for perm in itertools.permutations(range(1, q.n + 1))}
    return sorted(images, key=lambda f: f.nums)


def _random_table(rng: random.Random, n: int, bits) -> BoolFn:
    """A random table depending on exactly the given (0-based) bits."""
    bits = list(bits)
    while True:
        vals = [rng.randrange(-4, 5) for _ in range(1 << len(bits))]
        nums = [vals[sum(1 << k for k, b in enumerate(bits) if x >> b & 1)]
                for x in range(1 << n)]
        q = BoolFn.from_ints(n, nums, rng.choice((1, 3)))
        if len(junta_support(q)) == len(bits):
            return q


@pytest.mark.parametrize("n", [5, 6])
def test_symmetry_closure_refuses_a_proper_subgroup_orbit(n):
    # the orbit of a support-3 table under the n-cycle alone is closed
    # under that cyclic subgroup only: the cycle maps every slack into the
    # family, the transposition does not
    cycle_perm = tuple(range(2, n + 1)) + (1,)
    for seed in range(4):
        rng = random.Random(seed)
        family = [_random_table(rng, n, rng.sample(range(n), 3))]
        for _ in range(n - 1):
            family.append(_permuted(family[-1], cycle_perm))
        rng.shuffle(family)
        assert _reference_closed(family, [cycle_perm])
        assert verify_symmetry_closure(family, n) == \
            _reference_closure(family, n) == (math.factorial(n), False), seed


@pytest.mark.parametrize("n, bits", [(3, range(3)), (4, range(4)),
                                     (5, (1, 3, 4))])
def test_symmetry_closure_on_whole_orbits(n, bits):
    # whole orbits of random tables, dense ones (support all n bits) and
    # one on bits away from the low end: closed, and not closed once one
    # image is dropped or another orbit's slack joins
    expected = math.factorial(n)
    for seed in range(3):
        rng = random.Random(seed)
        orbit = _orbit(_random_table(rng, n, bits))
        stray = _random_table(rng, n, bits)
        for family, closed in ((orbit, True), (orbit[1:], False),
                               (orbit[:-1], False), (orbit + [stray], False)):
            assert verify_symmetry_closure(family, n) == \
                _reference_closure(family, n) == (expected, closed), seed


@pytest.mark.parametrize("n, bits", [(4, range(4)), (5, (0, 2))])
def test_symmetry_closure_orbit_split_across_denominators(n, bits):
    # the same numerators over two denominators: an orbit split between
    # them is not closed, the two whole orbits together are
    expected = math.factorial(n)
    for seed in range(3):
        rng = random.Random(seed)
        orbit = _orbit(_random_table(rng, n, bits))
        third = [f.scaled(F(1, 3)) for f in orbit]
        split = [f if i % 2 else g
                 for i, (f, g) in enumerate(zip(orbit, third))]
        for family, closed in ((split, False), (orbit + third, True)):
            assert verify_symmetry_closure(family, n) == \
                _reference_closure(family, n) == (expected, closed), seed


def test_symmetry_closure_generators_are_no_group():
    # the cycle and the swap of x1 and x2 both map chi_12 into the family
    # (to chi_23 and to itself), but the cycle maps chi_23 to chi_34
    family = [BoolFn.character(8, [1, 2]), BoolFn.character(8, [2, 3])]
    assert verify_symmetry_closure(family, 8) == \
        _reference_closure(family, 8) == (2, False)


def test_symmetry_closure_keeps_denominators():
    # x1 and x2 / 2 have the same numerators, and the swap maps x1 to x2,
    # which is not in the family
    x1, x2 = BoolFn.character(2, [1]), BoolFn.character(2, [2])
    assert verify_symmetry_closure([x1, x2.scaled(F(1, 2))], 2) == (2, False)
    assert verify_symmetry_closure([x1, x2], 2) == (2, True)


def test_symmetry_closure_on_trivial_groups():
    # S_0 and S_1 hold the identity only, so every family is closed
    assert verify_symmetry_closure([BoolFn.from_ints(0, [1], 1)], 0) == \
        (1, True)
    assert verify_symmetry_closure([BoolFn.character(1, [1])], 1) == (1, True)
    assert verify_symmetry_closure([], 1) == (1, True)


def test_symmetry_closure_checks_variable_count():
    slacks = slack_functions(universal(4, 2))
    for n in (3, 6):
        with pytest.raises(InputError, match="lives on 4 vars"):
            verify_symmetry_closure(slacks, n)


def test_restriction_report_json():
    uniform = Density(BoolFn.constant(12, 1))
    S = sample_restriction(12, 3, 1)
    report = check_restriction([uniform], S, 2, 8, 3, 12)
    text = restriction_report_to_json(report, master_seed=1)
    assert '"seed": 1' in text and '"allPassed": true' in text
