import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftgap.errors import InputError, ParameterError, SizeCapError
from liftgap.boolfn import (BoolFn, Density, ENTROPY_TOLERANCE, FourierCoeffs,
                            _cache_spectrum, boolfn_from_json, boolfn_to_json,
                            chang_junta, entropy_deficit, fourier_transform,
                            integer_spectrum, inverse_transform,
                            junta_support, mask_of, spread, vars_of)
from liftgap.rationals import QuarticThreshold

F = Fraction


def majority3_density() -> Density:
    # twice the indicator of a positive coordinate sum on 3 bits
    return Density(BoolFn(3, [F(2) if bin(i).count("1") <= 1 else F(0)
                              for i in range(8)]))


def dictator_density(n=3) -> Density:
    return Density(BoolFn(n, [F(0) if i & 1 else F(2) for i in range(1 << n)]))


def test_character_transform():
    f = BoolFn.character(3, [1, 2])
    coeffs = fourier_transform(f).coeffs
    assert coeffs == {0b011: F(1)}


@pytest.mark.parametrize("n", range(7))
def test_character_tables_and_cached_spectra(n):
    for alpha in range(1 << n):
        f = BoolFn.character(n, vars_of(alpha))
        assert f.nums == tuple(-1 if (x & alpha).bit_count() & 1 else 1
                               for x in range(1 << n))
        assert f.den == 1
        fresh = BoolFn.from_ints(n, f.nums, f.den)
        assert integer_spectrum(f) == integer_spectrum(fresh)
        assert f.mean() == fresh.mean() == (1 if alpha == 0 else 0)


def test_scaled_scales_the_sup_norm():
    f = BoolFn.from_ints(3, [3, -6, 0, 9, 12, 0, -3, 6], 4)
    assert (f.nums, f.den) == ((3, -6, 0, 9, 12, 0, -3, 6), 4)
    assert f.sup_norm() == 3  # caches (min, max)
    for r in (F(2, 3), F(-5), 1 / f.mean(), F(-1, 12)):
        g = f.scaled(r)
        assert g._num_range() == (min(g.nums), max(g.nums)), r
        assert g.sup_norm() == max(abs(v) for v in g.values) == 3 * abs(r)
    assert f.scaled(0).sup_norm() == 0


def _deferred(n, nums, den):
    """nums / den as a deferred table, and the list of its builds."""
    builds = []

    def build():
        builds.append(1)
        return list(nums)

    return BoolFn.deferred(n, build, den), builds


@pytest.mark.parametrize("reader", [
    lambda f: f.nums, lambda f: f.den, hash, lambda f: f.values,
    lambda f: f == BoolFn.from_ints(2, [2, -5, 0, 12], 6),
], ids=["nums", "den", "hash", "values", "eq"])
def test_deferred_table_is_built_once_on_first_read(reader):
    f, builds = _deferred(2, [12, -30, 0, 72], 36)
    assert f._nums is None and not builds
    reader(f)
    assert builds == [1]
    assert (f.nums, f.den) == ((2, -5, 0, 12), 6)
    assert f == BoolFn.from_ints(2, [12, -30, 0, 72], 36)
    assert hash(f) == hash(BoolFn(2, [F(1, 3), F(-5, 6), F(0), F(2)]))
    assert f.values == (F(1, 3), F(-5, 6), F(0), F(2))
    assert builds == [1]


def test_scaled_keeps_a_table_deferred():
    f, builds = _deferred(2, [12, -30, 0, 72], 36)
    g = f.scaled(F(-3, 4))
    assert g._nums is None and not builds
    assert g == BoolFn.from_ints(2, [12, -30, 0, 72], 36).scaled(F(-3, 4))
    assert builds == [1] and f._nums is None
    with pytest.raises(InputError, match="table length"):
        BoolFn.deferred(2, lambda: [1, 2, 3], 1).nums


def test_scaled_carries_nonnegativity_for_a_positive_factor():
    f, builds = _deferred(2, [2, 0, 1, 1], 1)
    f._nonneg = True
    assert f.scaled(F(2, 3))._nonneg and f.scaled(5)._nonneg
    assert not f.scaled(F(-1, 2))._nonneg and not f.scaled(0)._nonneg
    assert f.scaled(1) is f
    assert not BoolFn.constant(2, 1).scaled(2)._nonneg  # never proved
    # a Density of a table with the fact reads no table
    _cache_spectrum(f, *integer_spectrum(BoolFn.from_ints(2, [2, 0, 1, 1])))
    q = Density(f.scaled(F(1, 2)).scaled(2))
    assert q.fn._nonneg and q.fn._nums is None and not builds


def test_density_without_the_fact_reads_the_table():
    # mean 1 and a known spectrum, but a negative entry and no carried fact
    eager = BoolFn.from_ints(2, [3, -1, 1, 1])
    integer_spectrum(eager)
    deferred, builds = _deferred(2, [3, -1, 1, 1], 1)
    _cache_spectrum(deferred, integer_spectrum(eager)[0], 4)
    for f in (eager, deferred):
        assert f._spectrum is not None and not f._nonneg
        assert f.mean() == 1
        with pytest.raises(InputError, match="nonnegative"):
            Density(f)
    assert builds == [1]


@given(st.integers(0, 5), st.integers(1, 12), st.data())
@settings(max_examples=60, deadline=None)
def test_sup_norm_at_most_matches_the_exact_norm(n, den, data):
    nums = data.draw(st.lists(st.integers(-30, 30),
                              min_size=1 << n, max_size=1 << n))
    plain = BoolFn.from_ints(n, nums, den)
    known = BoolFn.from_ints(n, nums, den)
    entries, scale = integer_spectrum(known)
    deferred, _ = _deferred(n, nums, den)
    _cache_spectrum(deferred, entries, scale)
    norm = plain.sup_norm()
    spectral = F(sum(abs(s) for _, s in entries), scale)
    eps = F(1, data.draw(st.integers(1, 10 ** 6)))
    for cap in (norm, norm - eps, norm + eps, spectral, spectral - eps, 0,
                F(data.draw(st.integers(0, 60)), data.draw(st.integers(1, 8)))):
        assert plain._spectrum is None
        for f in (plain, known, deferred):
            assert f.sup_norm_at_most(cap) == (norm <= cap), (f, cap)
    # within the spectral bound no table is read
    fresh, builds = _deferred(n, nums, den)
    _cache_spectrum(fresh, entries, scale)
    assert fresh.sup_norm_at_most(spectral) and not builds


def test_constant_transform():
    assert fourier_transform(BoolFn.constant(3, 1)).coeffs == {0: F(1)}


def test_majority_coefficient_oracle():
    q = majority3_density().fn
    # independent oracle: direct summation over the 8 assignments
    def direct(alpha):
        total = F(0)
        for x in range(8):
            sign = -1 if bin(x & alpha).count("1") % 2 else 1
            total += sign * q.values[x]
        return total / 8
    coeffs = fourier_transform(q)
    for alpha in range(8):
        assert coeffs.get(alpha) == direct(alpha)
    assert coeffs.get(0b001) == F(1, 2)


@given(st.integers(0, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_roundtrip_and_parseval(n, data):
    values = data.draw(st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        min_size=1 << n, max_size=1 << n))
    f = BoolFn(n, values)
    coeffs = fourier_transform(f)
    assert inverse_transform(coeffs) == f
    energy = sum(v * v for v in f.values) / (1 << n)
    assert sum(c * c for c in coeffs.coeffs.values()) == energy


def test_inverse_transform_rejects_masks_out_of_range():
    for mask in (-1, 1 << 2):
        with pytest.raises(InputError, match="coefficient mask out of range"):
            inverse_transform(FourierCoeffs(2, {mask: F(1)}))


def test_spread_moves_a_mask_onto_positions():
    assert spread(0, (3, 1)) == 0
    assert spread(0b01, (3, 1)) == 0b100
    assert spread(0b11, (3, 1)) == 0b101
    assert spread(0b101, (2, 7, 5)) == mask_of((2, 5), 7)
    for mask in range(1 << 4):
        positions = (6, 2, 9, 4)
        assert vars_of(spread(mask, positions)) == {
            positions[i - 1] for i in vars_of(mask)}


def test_fraction_and_integer_constructions_agree():
    # 1/3 and -5/6 given as Fractions, and as unreduced integers over 36
    fracs = BoolFn(2, [F(1, 3), F(-5, 6), F(0), F(2)])
    ints = BoolFn.from_ints(2, [12, -30, 0, 72], 36)
    assert (ints.nums, ints.den) == ((2, -5, 0, 12), 6)
    assert fracs == ints and hash(fracs) == hash(ints)
    assert fracs.values == ints.values == (F(1, 3), F(-5, 6), F(0), F(2))
    assert fracs.mean() == ints.mean() == F(3, 8)
    assert fracs.sup_norm() == ints.sup_norm() == 2
    assert boolfn_to_json(fracs) == boolfn_to_json(ints)
    assert ints == BoolFn.from_ints(2, [-2, 5, 0, -12], -6)
    assert ints != BoolFn.from_ints(2, [2, -5, 0, 12], 5)
    assert ints.scaled(F(3, 2)) == BoolFn(2, [F(1, 2), F(-5, 4), F(0), F(3)])
    assert ints.scaled(1) is ints
    zero = BoolFn.from_ints(1, [0, 0], 7)
    assert (zero.nums, zero.den) == ((0, 0), 1) and zero == BoolFn.constant(1, 0)
    with pytest.raises(InputError):
        BoolFn.from_ints(1, [1, 2], 0)


@given(st.integers(0, 6), st.integers(-10 ** 6, 10 ** 6).filter(bool), st.data())
@settings(max_examples=40, deadline=None)
def test_integer_tables_roundtrip(n, den, data):
    nums = data.draw(st.lists(st.integers(-10 ** 9, 10 ** 9),
                              min_size=1 << n, max_size=1 << n))
    f = BoolFn.from_ints(n, nums, den)
    assert f == BoolFn(n, [F(v, den) for v in nums])
    assert f.values == tuple(F(v, den) for v in nums)
    assert inverse_transform(fourier_transform(f)) == f


def test_entropy_examples():
    n = 4
    assert entropy_deficit(Density(BoolFn.constant(n, 1))) == pytest.approx(0, abs=ENTROPY_TOLERANCE)
    assert entropy_deficit(majority3_density()) == pytest.approx(1, abs=ENTROPY_TOLERANCE)
    point = Density(BoolFn(n, [F(1 << n)] + [F(0)] * ((1 << n) - 1)))
    assert entropy_deficit(point) == pytest.approx(n, abs=ENTROPY_TOLERANCE)


def test_density_validation():
    with pytest.raises(InputError):
        Density(BoolFn(1, [F(2), F(-1)]))  # negative value, mean 1/2
    with pytest.raises(InputError):
        Density(BoolFn(1, [F(1), F(3)]))   # mean 2


def test_chang_dictator():
    cert = chang_junta(dictator_density(), 1, 1, F(1, 2))
    assert cert.success and cert.junta == {1}


def test_chang_uniform():
    cert = chang_junta(Density(BoolFn.constant(4, 1)), 1, 2, F(1, 4))
    assert cert.success and cert.junta == frozenset()


def test_chang_majority():
    # the three singleton coefficients are 1/2 > 1/4 and independent over F2
    cert = chang_junta(majority3_density(), 1, 1, F(1, 4))
    assert cert.junta == {1, 2, 3}
    assert cert.success  # 3 <= 2*1/(1/4)^2 = 32


def test_chang_postconditions_hold():
    q = majority3_density()
    gamma = F(1, 4)
    cert = chang_junta(q, 1, 1, gamma)
    j_mask = mask_of(cert.junta, 3)
    for alpha, v in fourier_transform(q.fn).coeffs.items():
        if bin(alpha).count("1") <= 1 and alpha & ~j_mask:
            assert abs(v) <= gamma


def test_chang_failure_reports_violations():
    # point mass: every coefficient is 1; t = 0 gives budget 0
    point = Density(BoolFn(3, [F(8)] + [F(0)] * 7))
    cert = chang_junta(point, 0, 2, F(1, 2))
    assert not cert.success
    assert cert.violations


def test_chang_threshold_is_strict():
    # the singleton coefficients of majority3 are exactly 1/2, gamma
    # given as a rational, a square root (carried as the fourth root of
    # its square) and a fourth root
    q = majority3_density()
    for gamma in (F(1, 2), QuarticThreshold(F(1, 4) ** 2),
                  QuarticThreshold(F(1, 16))):
        assert chang_junta(q, 1, 1, gamma).junta == frozenset()
    for gamma in (F(1, 2) - F(1, 10 ** 9),
                  QuarticThreshold((F(1, 4) - F(1, 10 ** 9)) ** 2),
                  QuarticThreshold(F(1, 16) - F(1, 10 ** 9))):
        assert chang_junta(q, 1, 1, gamma).junta == {1, 2, 3}


def test_chang_gamma_zero_rejected():
    with pytest.raises(ParameterError):
        chang_junta(majority3_density(), 1, 1, F(0))


def test_junta_predicates():
    assert junta_support(BoolFn.character(3, [2])) == {2}
    assert junta_support(BoolFn.constant(3, 5)) == frozenset()
    assert junta_support(majority3_density().fn) == {1, 2, 3}
    assert junta_support(majority3_density().fn) <= {1, 2, 3}
    assert not junta_support(majority3_density().fn) <= {1, 2}
    assert junta_support(BoolFn.character(4, [2])) <= {2}


def test_size_cap():
    # the cap fires before the table length is inspected
    with pytest.raises(SizeCapError):
        BoolFn(25, [])


def test_json_roundtrip():
    f = BoolFn(2, [F(1, 2), F(0), F(3), F(-1, 7)])
    text = boolfn_to_json(f)
    assert boolfn_from_json(text) == f
    obj = json.loads(text)
    assert obj["values"][0] == "1/2"


def test_json_rejects_bad_length():
    with pytest.raises(InputError):
        boolfn_from_json('{"n": 2, "values": ["1", "2"]}')
    with pytest.raises(InputError):
        boolfn_from_json('{"n": 1, "values": ["0.5", "1"]}')


@pytest.mark.parametrize("doc", [
    '{"n": 1, "values": [null, "1"]}',
    '{"n": 1, "values": [0.1, "19/10"]}',
    '{"n": 1, "values": [true, "1"]}',
    '{"n": true, "values": ["1", "1"]}',
], ids=["null", "float", "bool", "bool-n"])
def test_json_rejects_non_rational_data(doc):
    with pytest.raises(InputError):
        boolfn_from_json(doc)


def test_json_accepts_integer_values():
    assert boolfn_from_json('{"n": 1, "values": [2, "-1/3"]}') == BoolFn(
        1, [F(2), F(-1, 3)])


def test_random_density_chang_bound():
    rng = random.Random(5)
    n, d, gamma = 6, 2, F(1, 4)
    for _ in range(5):
        # small random low-degree perturbation of the uniform density
        coeffs = {0: F(1)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                coeffs[mask_of([i, j], n)] = F(rng.randint(-1, 1), 16)
        table = inverse_transform(
            __import__("liftgap.boolfn", fromlist=["FourierCoeffs"])
            .FourierCoeffs(n, coeffs))
        q = Density(table)
        cert = chang_junta(q, 1, d, gamma)
        assert cert.success
        assert 4 * len(cert.junta) <= 2 * 1 * d * 16  # |J| <= 2td/gamma^2
