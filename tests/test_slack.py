import array
import itertools
import json
import logging
import math
import random
import re
from fractions import Fraction

import pytest

from liftgap import cli, slack
from liftgap.boolfn import BoolFn, fourier_transform, integer_spectrum
from liftgap.csp import (brute_force_opt, complete, cycle, evaluate,
                         graph_instance, plant, random_3sat)
from liftgap.errors import (CertificationError, InputError, InternalError,
                            SizeCapError, UnboundedError)
from liftgap.lp import linear_program
from liftgap.sa import sa_variable_masks
from liftgap.slack import (PolyhedralRelaxation, SlackMatrix, _Lanes,
                           _decomposition_rows, _validate_pairing,
                           _validate_points,
                           build_slack_matrix,
                           factorization_product, factorization_to_csvs,
                           farkas_decompose, lp_value,
                           metric_maxcut, protocol_factorization,
                           protocol_matrix, protocol_tail_probabilities,
                           slack_functions, slack_matrix_to_csv, universal,
                           verify_decomposition)

F = Fraction


def test_metric3_inequality_count():
    # 6 box rows plus one triple with 4 facets
    assert len(metric_maxcut(3).inequalities) == 10


def test_metric_lp_values():
    assert lp_value(metric_maxcut(3), graph_instance(3, [(1, 2)])) == 1
    assert lp_value(metric_maxcut(3), cycle(3)) == F(2, 3)


def test_metric_c5_value_with_dual_oracle():
    rel = metric_maxcut(5)
    # independent upper-bound certificate: the two perimeter facets on
    # {1,2,3} and {3,4,5} plus the triangle facet y15 <= y13 + y35 sum to
    # 4 - (y12 + y23 + y34 + y45 + y15) >= 0, capping the cycle sum at 4.
    rows = dict(zip(rel.labels, rel.inequalities))
    combo_coeffs = [sum(rows[label][0].get(e, 0) for label in (
        "y(1, 2)+y(1, 3)+y(2, 3)<=2", "y(3, 4)+y(3, 5)+y(4, 5)<=2",
        "y(1, 5)<=y(1, 3)+y(3, 5)")) for e in range(rel.dim)]
    combo_rhs = (rows["y(1, 2)+y(1, 3)+y(2, 3)<=2"][1]
                 + rows["y(3, 4)+y(3, 5)+y(4, 5)<=2"][1]
                 + rows["y(1, 5)<=y(1, 3)+y(3, 5)"][1])
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    cycle_edges = {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}
    for e, coeff in zip(pairs, combo_coeffs):
        assert coeff == (1 if e in cycle_edges else 0)
    assert combo_rhs == 4
    # feasible point attaining 4/5: distance-1 pairs at 4/5, distance-2 at 2/5
    assert lp_value(rel, cycle(5)) == F(4, 5)


def test_lp_value_at_least_opt():
    for inst in (cycle(5), complete(5), cycle(4)):
        rel = metric_maxcut(inst.n)
        assert lp_value(rel, inst) >= brute_force_opt(inst)[0]


def test_metric_embedding_rejects_non_maxcut():
    with pytest.raises(InputError):
        lp_value(metric_maxcut(5), random_3sat(5, 4, 1))


def test_slack_functions_metric3():
    rel = metric_maxcut(3)
    slacks = slack_functions(rel)
    assert len(slacks) == 10
    # box constraint y12 <= 1: slack (1 + x1 x2)/2
    upper12 = slacks[rel.labels.index("y(1, 2)<=1")]
    assert upper12.values == tuple(
        F(1) if ((x >> 0) ^ (x >> 1)) & 1 == 0 else F(0) for x in range(8))
    # perimeter slack at +++ is 2
    perim = slacks[rel.labels.index("y(1, 2)+y(1, 3)+y(2, 3)<=2")]
    assert perim.values[0] == 2
    assert set(perim.values) == {F(0), F(2)}


def _fraction_points(rel):
    """The embedded assignments as tuples of Fractions, read off the
    coordinate tables: point x is (coordinate(e).values[x] for each e)."""
    return list(zip(*(rel.coordinate(e).values for e in range(rel.dim))))


def _slacks_from_definition(rel):
    """b_i - <A_i, embedded x>, in Fraction arithmetic, one list per row."""
    points = _fraction_points(rel)
    return [[rhs - sum(row.get(e, 0) * p for e, p in enumerate(pt))
             for pt in points]
            for row, rhs in rel.inequalities]


def _rescaled_metric4(point_scale):
    """metric(4) with fractional row multiples and scaled embedded points;
    the instance embedding is scaled inversely, keeping the pairing."""
    base = metric_maxcut(4)
    rows = [({e: a * F(i % 5 + 1, 3) for e, a in row.items()},
             rhs * F(i % 5 + 1, 3))
            for i, (row, rhs) in enumerate(base.inequalities)]
    # y12 + y13/3 <= 4/3 mixes denominators within one row
    rows.append(({0: F(1), 1: F(1, 3)}, F(4, 3)))
    return PolyhedralRelaxation(
        "rescaled", 4, base.dim, rows, base.labels + ("mixed",),
        lambda e: base.coordinate(e).scaled(point_scale),
        lambda inst: tuple(v / point_scale for v in base.instance_embed(inst)))


def test_slack_tables_match_definition():
    for rel in (metric_maxcut(4), universal(4, 2), _rescaled_metric4(F(1, 2))):
        assert ([list(q.values) for q in slack_functions(rel)]
                == _slacks_from_definition(rel))
    # same polyhedron, objective doubled
    assert lp_value(_rescaled_metric4(F(1, 2)), cycle(4)) == 2


def _documented_points(n, d=None):
    """The embedded assignments as Fraction tuples from the documented
    embedding, not from the coordinate tables: the cut indicators
    [x_i != x_j] of metric(n), or the characters of universal(n, d)."""
    if d is None:
        return [tuple(F(x >> (i - 1) & 1 != x >> (j - 1) & 1)
                      for i, j in itertools.combinations(range(1, n + 1), 2))
                for x in range(1 << n)]
    return [tuple(F((-1) ** (m & x).bit_count())
                  for m in (0,) + sa_variable_masks(n, d))
            for x in range(1 << n)]


def _halved_metric_file(tmp_path, n):
    """metric(n) as a relaxation file, row i times (i % 4 + 1) / 2, read
    back through the CLI's file: parser.  The row scales reach 2, and
    where a row's slack values are all even (the triangle facets) its
    table is reduced to lowest terms."""
    base = metric_maxcut(n)
    path = tmp_path / "halved.json"
    path.write_text(json.dumps({"embed": "metric", "inequalities": [
        {"coeffs": [str(row.get(e, 0) * F(i % 4 + 1, 2))
                    for e in range(base.dim)],
         "b": str(rhs * F(i % 4 + 1, 2)), "label": label}
        for i, ((row, rhs), label) in enumerate(zip(base.inequalities,
                                                    base.labels))]}))
    return cli._relaxation(f"file:{path}", n, {})


# the first read of each table goes through one of these in turn
_TABLE_READERS = (lambda q, eager: q.nums, lambda q, eager: q.den,
                  lambda q, eager: hash(q), lambda q, eager: q == eager,
                  lambda q, eager: q.values)


@pytest.mark.parametrize("case", ["metric(5)", "universal(6,2)", "file"])
def test_deferred_slack_tables_equal_eager_ones(case, tmp_path):
    if case == "universal(6,2)":
        rel, points = universal(6, 2), _documented_points(6, 2)
    else:
        rel = (metric_maxcut(5) if case == "metric(5)"
               else _halved_metric_file(tmp_path, 5))
        points = _documented_points(5)
    reduced = 0
    for i, (q, (row, rhs)) in enumerate(zip(slack_functions(rel),
                                            rel.inequalities)):
        want = tuple(rhs - sum(a * pt[e] for e, a in row.items())
                     for pt in points)
        eager = BoolFn(rel.n, want)
        assert q._nums is None and q._nonneg
        raw_den = q._pending[1]
        _TABLE_READERS[i % len(_TABLE_READERS)](q, eager)
        assert q._nums is not None and q._pending is None
        assert (q.nums, q.den) == (eager.nums, eager.den)
        assert q == eager and hash(q) == hash(eager)
        assert q.values == want
        reduced += q.den != raw_den
    if case == "file":
        assert max(c.scale for c in rel.rows) == 2 and reduced
    else:
        assert not reduced


def _fraction_decomposition_rows(c, inst, slacks, n):
    """The rows farkas_decompose had linear_program make, from each
    nonzero entry q_i(x) as a Fraction."""
    width = 1 + len(slacks)
    return linear_program(width, [
        ({0: 1, **{i: q.values[x] for i, q in enumerate(slacks, 1)
                   if q.values[x]}}, "=", c - evaluate(inst, x))
        for x in range(1 << n)], (0,) * width).constraints


@pytest.mark.parametrize("case", ["metric(6)", "universal(6,2)", "file"])
def test_decomposition_rows_match_linear_program(case, tmp_path):
    # the file's tables have entries over 2
    rel = {"metric(6)": lambda: metric_maxcut(6),
           "universal(6,2)": lambda: universal(6, 2),
           "file": lambda: _halved_metric_file(tmp_path, 6)}[case]()
    slacks = slack_functions(rel)
    inst = graph_instance(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                              (1, 6)])
    for c in (F(99, 100), F(5, 6), F(1)):
        expected = _fraction_decomposition_rows(c, inst, slacks, 6)
        assert tuple(_decomposition_rows(c, inst, slacks, 6)) == expected
    assert any(t.scale > 1 for t in expected)


def test_decomposition_rows_reduce_each_entry():
    # at x = 0 the entries 2/2 and 4/2 are integers and the rhs is 1, so
    # the row's scale is 1 although both tables are over 2
    slacks = [BoolFn.from_ints(2, [2, 1, 0, 3], 2),
              BoolFn.from_ints(2, [4, 0, 1, 0], 2)]
    inst = graph_instance(2, [(1, 2)])
    rows = _decomposition_rows(F(1), inst, slacks, 2)
    assert (rows[0].terms, rows[0].rhs, rows[0].scale) == (
        ((0, 1), (1, 1), (2, 2)), 1, 1)
    assert tuple(rows) == _fraction_decomposition_rows(F(1), inst, slacks, 2)


def _butterfly_items(f):
    """The coefficients of a fresh copy of f, transformed by the butterfly,
    in the order it emits them."""
    return list(fourier_transform(BoolFn.from_ints(f.n, f.nums, f.den))
                .coeffs.items())


@pytest.mark.parametrize("rel", [
    *(metric_maxcut(n) for n in range(3, 7)),
    *(universal(n, d) for n in range(3, 7) for d in range(min(n, 3) + 1)),
    _rescaled_metric4(F(1, 2)),
], ids=repr)
def test_row_spectra_equal_the_butterfly(rel):
    # slack_functions builds each spectrum from the row and the transformed
    # coordinate columns; scaled carries it over times the factor
    for q in slack_functions(rel):
        items = _butterfly_items(q)
        assert list(fourier_transform(q).coeffs.items()) == items
        for r in (F(2, 3), F(-5), 1 / q.mean() if q.mean() else F(7)):
            scaled = list(fourier_transform(q.scaled(r)).coeffs.items())
            assert scaled == [(a, v * r) for a, v in items]
            assert scaled == _butterfly_items(q.scaled(r))
        assert not fourier_transform(q.scaled(0)).coeffs


def test_embedding_checks_raise_internal_error():
    # rows that cut off an embedded point are an input error, as a
    # relaxation file may give them; a failed pairing identity is a bug.
    # Points scaled by 3 leave the box y <= 1
    with pytest.raises(InputError, match="violates row"):
        slack_functions(_rescaled_metric4(F(3)))
    # K y12 <= K - 1 fails by 1 wherever x cuts {1, 2}: the lane just
    # below zero, at every lane width
    base = metric_maxcut(4)
    for k, width in ((10, 16), (20, 32), (40, 64), (80, 128)):
        label = f"2^{k} y12 <= 2^{k} - 1"
        rel = PolyhedralRelaxation(
            "tight", 4, base.dim,
            base.inequalities[:3] + (({0: F(2 ** k)}, F(2 ** k - 1)),)
            + base.inequalities[3:],
            base.labels[:3] + (label,) + base.labels[3:],
            base.coordinate, base.instance_embed)
        assert rel.point_columns()[2].width == width
        with pytest.raises(InputError,
                           match=rf"violates row 3 \({re.escape(label)}\)"):
            slack_functions(rel)
    rel = _rescaled_metric4(F(1, 2))
    broken = PolyhedralRelaxation(
        "broken", 4, rel.dim, rel.inequalities, rel.labels,
        rel.coordinate, metric_maxcut(4).instance_embed)
    with pytest.raises(InternalError, match="pairing identity"):
        lp_value(broken, cycle(4))


def _list_butterfly(vals):
    out = list(vals)
    h = 1
    while h < len(out):
        for i in range(len(out)):
            if not i & h:
                out[i], out[i | h] = out[i] + out[i | h], out[i] - out[i | h]
        h <<= 1
    return out


def _list_pass_tables(rel):
    """Each row's (den, nums, spectrum, scale) from integer columns held as
    lists: one list pass per row term, and a list butterfly of the table
    before it is reduced to lowest terms."""
    pts = _fraction_points(rel)
    den = math.lcm(*(v.denominator for pt in pts for v in pt))
    cols = [[v.numerator * (den // v.denominator) for v in col]
            for col in zip(*pts)]
    out = []
    for row, rhs in rel.inequalities:
        scale = math.lcm(rhs.denominator,
                         *(a.denominator for a in row.values()))
        table = [rhs.numerator * (scale // rhs.denominator) * den] * len(pts)
        for e, a in row.items():
            a_int = a.numerator * (scale // a.denominator)
            table = [t - a_int * c for t, c in zip(table, cols[e])]
        q = BoolFn.from_ints(rel.n, table, scale * den)
        spectrum = [(m, s) for m, s in enumerate(_list_butterfly(table)) if s]
        out.append((q.den, q.nums, spectrum, (scale * den) << rel.n))
    return out


def _packed_tables(rel):
    return [(q.den, q.nums, *integer_spectrum(q))
            for q in slack_functions(rel)]


def _random_relaxation(seed, magnitude):
    """Seeded points and rows on n = 4 and six coordinates: rationals with
    numerators up to `magnitude` in absolute value, negative included, and
    denominators up to 6.  Each rhs is the row's largest value over the
    points plus a seeded gap, so every slack is nonnegative."""
    rng = random.Random(seed)

    def rational():
        return F(rng.randint(-magnitude, magnitude),
                 rng.choice((1, 2, 3, 4, 6)))

    pts = [tuple(rational() for _ in range(6)) for _ in range(16)]
    rows = []
    for _ in range(8):
        row = {e: a for e in rng.sample(range(6), rng.randint(0, 6))
               if (a := rational())}
        rhs = max(sum(a * pt[e] for e, a in row.items()) for pt in pts)
        rows.append((row, rhs + abs(rational())))
    cols = [BoolFn(4, col) for col in zip(*pts)]
    return PolyhedralRelaxation(
        f"random({seed},{magnitude})", 4, 6, rows,
        [f"row{i}" for i in range(len(rows))], cols.__getitem__, None)


_PROPERTY_CASES = [(seed, magnitude) for magnitude in (1, 40, 2 ** 20, 2 ** 45,
                                                       2 ** 100)
                   for seed in range(4)]


def _reference_point_columns(rel):
    """What point_columns packs, from the Fraction point tuples: the
    columns over the lcm of every entry's denominator, that lcm, the lane
    width for the bound its docstring gives, and each column's list
    butterfly without its zeros."""
    pts = _fraction_points(rel)
    den = math.lcm(*(v.denominator for pt in pts for v in pt))
    cols = [[v.numerator * (den // v.denominator) for v in col]
            for col in zip(*pts)]
    spectra = [[(m, s) for m, s in enumerate(_list_butterfly(col)) if s]
               for col in cols]
    peak = [max(abs(v) for v in col) for col in cols]
    bound = max(peak)
    for row, rhs in rel.inequalities:
        scale = math.lcm(rhs.denominator,
                         *(a.denominator for a in row.values()))
        bound = max(bound, int(abs(rhs) * scale) * den
                    + sum(int(abs(a) * scale) * peak[e]
                          for e, a in row.items()))
    return cols, den, _Lanes(rel.n, bound).width, spectra


def test_point_columns_match_fraction_points():
    rels = [_rescaled_metric4(F(1, 2))] + [_random_relaxation(*case)
                                            for case in _PROPERTY_CASES]
    mixed = 0
    for rel in rels:
        cols, den, lanes, spectra = rel.point_columns()
        assert ([list(lanes.unpack(c + lanes.high)) for c in cols], den,
                lanes.width, spectra) == _reference_point_columns(rel), rel
        mixed += len({rel.coordinate(e).den for e in range(rel.dim)}) > 1
    # most random cases rescale some columns to the common den
    assert mixed > len(rels) // 2


@pytest.mark.parametrize("n, d", [
    *((n, None) for n in range(3, 7)),
    *((n, d) for n in range(3, 7) for d in range(min(n, 3) + 1)),
])
def test_coordinates_are_the_documented_embedding(n, d):
    if d is None:
        # metric(n): the cut indicator [x_i != x_j], pairs in lexicographic
        # order
        rel = metric_maxcut(n)
        expected = [[F(x >> (i - 1) & 1 != x >> (j - 1) & 1)
                     for x in range(1 << n)]
                    for i, j in itertools.combinations(range(1, n + 1), 2)]
    else:
        # universal(n, d): the character chi_m of mask 0, then of each mask
        # of sa_variable_masks(n, d)
        rel = universal(n, d)
        expected = [[F((-1) ** (m & x).bit_count()) for x in range(1 << n)]
                    for m in (0,) + sa_variable_masks(n, d)]
    assert rel.dim == len(expected)
    assert [list(rel.coordinate(e).values) for e in range(rel.dim)] == expected
    # each coordinate comes with its spectrum, as the butterfly gives it
    for e in range(rel.dim):
        f = rel.coordinate(e)
        assert f._spectrum is not None
        assert (list(fourier_transform(f).coeffs.items())
                == _butterfly_items(f))


def test_packed_tables_match_list_passes():
    widths = set()
    for case in _PROPERTY_CASES:
        rel = _random_relaxation(*case)
        assert _packed_tables(rel) == _list_pass_tables(rel), case
        widths.add(rel.point_columns()[2].width)
    rel = _rescaled_metric4(F(1, 2))
    assert _packed_tables(rel) == _list_pass_tables(rel)
    assert widths == {16, 32, 64, 128, 256}


def _max_min_sup(f):
    return max(max(f.values), -min(f.values))


@pytest.mark.parametrize("rel", [
    *(metric_maxcut(n) for n in range(3, 7)),
    *(universal(n, d) for n in range(3, 7) for d in range(min(n, 3) + 1)),
    _rescaled_metric4(F(1, 2)),
    *(_random_relaxation(*case) for case in _PROPERTY_CASES),
], ids=repr)
def test_slack_means_and_sup_norms_from_the_caches(rel):
    # mean() reads the mask-0 entry of the cached spectrum, and scaled
    # carries the spectrum over
    for q in slack_functions(rel):
        mean = F(sum(q.nums), q.den << q.n)
        assert q.mean() == mean
        assert q.sup_norm() == _max_min_sup(q)
        for r in (F(2, 3), F(-5), 1 / mean if mean else F(7)):
            image = q.scaled(r)
            assert image.mean() == F(sum(image.nums), image.den << q.n)
            assert image.sup_norm() == _max_min_sup(image)


def test_lane_width_from_bound():
    assert [_Lanes(2, b).width for b in (0, 2 ** 14 - 1, 2 ** 14,
                                         2 ** 30 - 1, 2 ** 30, 2 ** 62 - 1,
                                         2 ** 62, 2 ** 126)] == [
        16, 16, 32, 32, 64, 64, 128, 256]


class _BigEndianArray(array.array):
    """An array laid out as on a big-endian host: the bytes it takes and
    gives hold each item big-endian."""

    def frombytes(self, data):
        super().frombytes(data)
        self.byteswap()

    def tobytes(self):
        items = array.array(self.typecode, self)
        items.byteswap()
        return items.tobytes()


def test_packed_lanes_on_a_big_endian_host(monkeypatch):
    cases = [(0, 1), (0, 40), (0, 2 ** 20), (0, 2 ** 45)]
    assert ({_random_relaxation(*c).point_columns()[2].width for c in cases}
            == {16, 32, 64, 128})
    expected = [_list_pass_tables(_random_relaxation(*c)) for c in cases]
    monkeypatch.setattr(slack, "array", _BigEndianArray)
    # without the byteswap, a big-endian host reads wrong lanes, and some
    # table has a negative lane
    with pytest.raises(InputError, match="violates row"):
        slack_functions(_random_relaxation(0, 1))
    monkeypatch.setattr(slack, "_BYTE_ORDER", "big")
    assert [_packed_tables(_random_relaxation(*c)) for c in cases] == expected


def test_skipped_checks_are_logged(caplog):
    rel = metric_maxcut(13)
    inst = cycle(13)
    with caplog.at_level(logging.INFO, logger="liftgap.slack"):
        _validate_points(rel)
        _validate_pairing(rel, inst, rel.instance_embed(inst))
    assert [r.getMessage() for r in caplog.records] == [
        "metric(13): point-feasibility check skipped (n = 13 > 12)",
        "metric(13): pairing-identity check skipped (n = 13 > 12)"]


@pytest.mark.parametrize("row", [{3: F(1)}, {-1: F(1)}, {"0": F(1)}])
def test_relaxation_rejects_bad_coordinate(row):
    base = metric_maxcut(3)
    with pytest.raises(InputError, match="coordinates"):
        PolyhedralRelaxation("bad", 3, base.dim, [({0: F(1)}, F(1)), (row, F(1))],
                             ["ok", "bad"], base.coordinate,
                             base.instance_embed)


def test_slacks_nonnegative_metric4():
    for q in slack_functions(metric_maxcut(4)):
        assert min(q.values) >= 0


def test_farkas_triangle():
    rel = metric_maxcut(3)
    tri = cycle(3)
    slacks = slack_functions(rel)
    result = farkas_decompose(F(2, 3), tri, rel)
    assert result.feasible
    assert verify_decomposition(F(2, 3), tri, result.lam0, result.lam, slacks)
    # the hand solution: weight 1/3 on the perimeter slack alone
    hand = [F(0)] * 10
    hand[rel.labels.index("y(1, 2)+y(1, 3)+y(2, 3)<=2")] = F(1, 3)
    assert verify_decomposition(F(2, 3), tri, F(0), hand, slacks)

    below = farkas_decompose(F(2, 3) - F(1, 100), tri, rel)
    assert not below.feasible
    assert below.certificate is not None and len(below.certificate) == 8


def test_farkas_constant_slack_route():
    # c = 1 always decomposes over the universal relaxation
    tri = cycle(3)
    rel = universal(3, 2)
    result = farkas_decompose(F(1), tri, rel)
    assert result.feasible
    assert verify_decomposition(F(1), tri, result.lam0, result.lam,
                                slack_functions(rel))


def test_farkas_single_edge_below_one():
    rel = metric_maxcut(3)
    edge = graph_instance(3, [(1, 2)])
    assert not farkas_decompose(F(1, 2), edge, rel).feasible


def test_farkas_iff_lp_value():
    rel = metric_maxcut(4)
    instances = [
        plant(cycle(3), (1, 2, 3), 4),
        graph_instance(4, [(1, 2), (2, 3), (3, 4)]),
        cycle(4),
        complete(4),
        graph_instance(4, [(1, 2), (1, 3), (1, 4)]),
    ]
    eps = F(1, 1000)
    for inst in instances:
        value = lp_value(rel, inst)
        assert farkas_decompose(value, inst, rel).feasible
        assert farkas_decompose(value + eps, inst, rel).feasible
        assert not farkas_decompose(value - eps, inst, rel).feasible


def test_verify_decomposition_rejects():
    rel = metric_maxcut(3)
    slacks = slack_functions(rel)
    assert not verify_decomposition(F(2, 3), cycle(3), F(1), [F(0)] * 10, slacks)
    assert not verify_decomposition(F(2, 3), cycle(3), F(0),
                                    [F(-1)] + [F(0)] * 9, slacks)


def _all_4vertex_graphs():
    pairs = list(itertools.combinations(range(1, 5), 2))
    out = []
    for pick in range(1, 64):
        edges = [e for i, e in enumerate(pairs) if pick >> i & 1]
        out.append(graph_instance(4, edges, name=f"g{pick}"))
    return out


def test_build_slack_matrix():
    tri = cycle(3)
    sm = build_slack_matrix([tri], list(range(8)), F(7, 8), F(3, 4))
    assert sm.entries[0][0] == F(7, 8)          # +++ cuts nothing
    assert sm.entries[0][0b100] == F(7, 8) - F(2, 3)
    assert min(min(row) for row in sm.entries) >= sm.c - sm.s


def test_slack_matrix_certification():
    edge = graph_instance(2, [(1, 2)], name="edge")
    with pytest.raises(CertificationError, match="edge"):
        build_slack_matrix([edge], list(range(4)), F(7, 8), F(3, 4))
    with pytest.raises(InputError):
        build_slack_matrix([cycle(3)], list(range(8)), F(1, 2), F(3, 4))


def test_protocol_matrix_t1_by_hand():
    sm = build_slack_matrix([cycle(3)], list(range(8)), F(7, 8), F(3, 4))
    mp = protocol_matrix(sm, 1)
    # p = 0: output c with certainty
    assert mp[0][0] == F(7, 8)
    # p = 2/3: the single draw crosses with probability 2/3, and a crossed
    # draw gives theta = 1 > c, output 0; otherwise c
    assert mp[0][0b100] == F(7, 8) * F(1, 3) == F(7, 24)


def test_protocol_bounds_and_decay():
    rows = [g for g in _all_4vertex_graphs()
            if brute_force_opt(g)[0] <= F(3, 4)]
    assert rows
    sm = build_slack_matrix(rows, list(range(16)), F(7, 8), F(3, 4))
    prev_tails = None
    for T in range(1, 6):
        mp = protocol_matrix(sm, T)
        tails = protocol_tail_probabilities(sm, T)
        for i in range(len(rows)):
            for j in range(16):
                excess = mp[i][j] - sm.entries[i][j]
                assert 0 <= excess <= tails[i][j]
        if prev_tails is not None:
            for i in range(len(rows)):
                for j in range(16):
                    p = evaluate(rows[i], sm.cols[j])
                    if p > 0:
                        assert tails[i][j] < prev_tails[i][j]
                    else:
                        assert tails[i][j] == prev_tails[i][j] == 0
        prev_tails = tails


def test_protocol_factorization_triangle():
    sm = build_slack_matrix([cycle(3)], list(range(8)), F(7, 8), F(3, 4))
    pf = protocol_factorization(sm, 1)
    assert len(pf.messages) == 3
    assert all(sum(row) == 1 for row in pf.U)
    assert all(0 <= v <= sm.c for row in pf.V for v in row)
    # V entries: c when the edge is uncut, 0 when cut (theta = 1 > c)
    assert set(v for row in pf.V for v in row) == {F(0), F(7, 8)}
    assert factorization_product(pf) == protocol_matrix(sm, 1)


def test_protocol_factorization_product_t2():
    rows = [g for g in _all_4vertex_graphs()[:12]
            if brute_force_opt(g)[0] <= F(3, 4)]
    sm = build_slack_matrix(rows or [plant(cycle(3), (1, 2, 3), 4)],
                            list(range(16)), F(7, 8), F(3, 4))
    pf = protocol_factorization(sm, 2)
    assert factorization_product(pf) == protocol_matrix(sm, 2)
    for row in pf.U:
        assert sum(row) == 1


def test_protocol_message_cap():
    sm = build_slack_matrix([complete(6)], [0], F(7, 8), F(4, 5))
    with pytest.raises(SizeCapError):
        protocol_factorization(sm, 12)


def test_protocol_rejects_non_maxcut():
    sat = random_3sat(4, 6, 3)
    opt = brute_force_opt(sat)[0]
    if opt <= F(31, 32):
        sm = SlackMatrix(4, (sat,), tuple(range(4)), F(63, 64), F(31, 32),
                         ((F(1),) * 4,))
        with pytest.raises(InputError):
            protocol_matrix(sm, 1)


def test_csv_exports():
    sm = build_slack_matrix([cycle(3)], list(range(8)), F(7, 8), F(3, 4))
    csv = slack_matrix_to_csv(sm)
    lines = csv.splitlines()
    assert lines[0] == "instance,0,1,2,3,4,5,6,7"
    assert lines[1].startswith("C3,7/8,")
    pf = protocol_factorization(sm, 1)
    out = factorization_to_csvs(pf, sm)
    assert out["U"].splitlines()[0] == "instance,1-2,1-3,2-3"
    assert out["V"].splitlines()[0] == "message,0,1,2,3,4,5,6,7"
    assert '"T": 1' in out["manifest"]


def test_universal_unbounded_is_error():
    # strip the normalization rows: the cone is unbounded in the
    # objective direction
    rel = universal(3, 2)
    stripped = PolyhedralRelaxation(
        "cone", 3, rel.dim, rel.inequalities[2:], rel.labels[2:],
        rel.coordinate, rel.instance_embed)
    with pytest.raises(UnboundedError):
        lp_value(stripped, cycle(3))
