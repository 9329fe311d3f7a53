"""Random-restriction pipeline and symmetric-LP checks.

The pipeline: normalize a relaxation's slack functions to densities,
keep the smooth ones (sup norm within 2^t), sample a random m-subset S
of coordinates until every smooth density looks like a small junta with
tiny stray coefficients inside S, plant the base instance and its
optimal level-d functional on S, and machine-check the resulting value
inequality with every error term computed exactly.  The pipeline reads
the slacks' spectra and carried facts, not their tables: a density's
mean is its spectrum's mask-0 entry, its nonnegativity is the fact
slack_functions proved, and its smoothness is decided by the sum of its
absolute spectrum entries whenever that sum is within 2^t.

The thresholds gamma = (16mtd/sqrt(n))^(1/2) and n^(d/2) are irrational
in general; both are carried as fourth-power data and every comparison
is made on fourth powers of integers, so all verdicts are exact.  The
one floating-point output is the asymptotic error estimate epsilon(n).

The symmetric side: detect (junta coordinates + level) structure of a
function, restrict along the antidiagonal x -> (x, -x), and observe the
contradiction that kills small symmetric relaxations below the level-d
value.  The contradiction needs a slack family closed under coordinate
permutations.  The closure check moves each slack's few nonzero integer
spectrum entries, which a permutation moves by the bit map it induces on
masks, instead of whole tables, and it moves them under the two
generators of S_n only: the verdict still holds for all n!
permutations.  The same moved keys map the slacks under automorphisms
of the dummy-extended instance, so the decomposition is solved in orbit
space, one variable per orbit of slack tables and one row per orbit of
assignments, and its lift is verified on the full 2^n-row system.  A
decomposition that is feasible below the level-d value through a slack
whose restriction is no small junta is a failed hypothesis, not a bug.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import operator
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import AbstractSet, Sequence

from .boolfn import (BoolFn, Density, chang_junta, fourier_transform,
                     integer_spectrum, junta_support, mask_of, vars_of)
from .caps import caps
from .csp import Instance, dummy_extend, plant, satisfied_counts
from .errors import (ExhaustedError, HypothesisError, InputError,
                     InternalError, ParameterError, SizeCapError)
from .lp import (INFEASIBLE, OPTIMAL, LinearProgram, LPSolution, _checked,
                 farkas_feasibility)
from .rationals import (QuarticThreshold, gamma_below_abs, json_value,
                        upper_approx)
from .sa import (_check_level, pe_apply, pe_plant, sa_value,
                 sa_variable_masks)
from .slack import (FarkasDecomposition, PolyhedralRelaxation,
                    _decomposition_rows, _equality_rows, farkas_decompose,
                    lp_value, slack_functions, verify_decomposition)

log = logging.getLogger(__name__)

# deterministic per-trial seed schedule (64-bit Weyl increment)
_TRIAL_STRIDE = 0x9E3779B97F4A7C15
_SEED_MOD = 1 << 64
# restrictions main_inequality_experiment samples before giving up
_MAX_TRIALS = 50

# shared by the many records whose junta or error term is empty or zero,
# so that reports kept in memory hold no copies of them
_NO_VARS: frozenset[int] = frozenset()
_ZERO = Fraction(0)


def trial_seed(master_seed: int, trial_index: int) -> int:
    return (master_seed + _TRIAL_STRIDE * trial_index) % _SEED_MOD


def restriction_gamma(n: int, m: int, d: int, t: int) -> QuarticThreshold:
    """The coefficient threshold with square 16*m*t*d / sqrt(n), held as
    its exact fourth power (16*m*t*d)^2 / n."""
    return QuarticThreshold(Fraction((16 * m * t * d) ** 2, n))


def smoothness_exponent(n: int, d: int) -> int:
    """Smallest integer t with 2^t >= n^d."""
    _check_level(d)
    nd = n ** d
    t = (nd - 1).bit_length()
    return t


def sample_restriction(n: int, m: int, seed: int) -> frozenset[int]:
    """Include each coordinate independently with probability 2m/n;
    resample until at least m survive, then drop the largest-index
    extras.  Deterministic in the seed (Mersenne Twister)."""
    if not 3 <= m <= n / 4:
        raise ParameterError(f"need 3 <= m <= n/4, got m={m}, n={n}")
    rng = random.Random(seed)
    prob = 2 * m / n
    while True:
        chosen = [i for i in range(1, n + 1) if rng.random() < prob]
        if len(chosen) >= m:
            return frozenset(chosen[:m])


@dataclass(frozen=True, slots=True)
class RestrictionRecord:
    density_id: int
    junta: frozenset[int]          # J(q) = (extracted junta) intersect S
    max_bad_coeff: Fraction        # max |coeff| on subsets of S outside J
    passed_junta_bound: bool       # |J(q)| <= d
    passed_coeff_bound: bool       # max_bad_coeff <= gamma
    hypothesis_error: str | None = None

    @property
    def passed(self) -> bool:
        return self.passed_junta_bound and self.passed_coeff_bound


@dataclass(frozen=True)
class RestrictionReport:
    S: frozenset[int]
    n: int
    m: int
    d: int
    t: int
    gamma_fourth: Fraction         # gamma^4, the exact rational datum
    records: tuple[RestrictionRecord, ...]
    family_size_ok: bool           # |Q| <= n^(d/2)
    trials_used: int = 1

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def passed_count(self) -> int:
        return sum(1 for r in self.records if r.passed)


def _stray_coeffs(q: Density, S: AbstractSet[int], J: AbstractSet[int],
                  d: int) -> list[tuple[int, Fraction]]:
    """The Fourier coefficients of q on the sets alpha inside S, not
    inside J, with |alpha| <= d: what the junta J misses within S."""
    s_mask = mask_of(S, q.n)
    j_mask = mask_of(J, q.n) if J else 0
    return [(alpha, v) for alpha, v in fourier_transform(q.fn).coeffs.items()
            if alpha & ~s_mask == 0 and alpha & ~j_mask
            and alpha.bit_count() <= d]


def check_restriction(densities: Sequence[Density], S: AbstractSet[int],
                      d: int, t: int, m: int, n: int) -> RestrictionReport:
    """Grade one sampled subset against every density.  Hypothesis
    violations (family too large, sup norm above 2^t, junta extraction
    over budget for the supplied t) are recorded per density, not fatal.
    """
    if len(S) != m:
        raise InputError(f"|S| = {len(S)} != m = {m}")
    if t < 0:
        raise ParameterError(f"smoothness exponent t = {t} must be >= 0")
    gamma = restriction_gamma(n, m, d, t)
    S = frozenset(S)
    family_ok = len(densities) ** 2 <= n ** d
    sup_cap = 1 << t
    # equal coefficients share one object in the report
    shared: dict[Fraction, Fraction] = {}
    records = []
    for i, q in enumerate(densities):
        if q.n != n:
            raise InputError(f"density {i} lives on {q.n} vars, expected {n}")
        err = None
        if not q.fn.sup_norm_at_most(sup_cap):
            err = f"sup norm {q.fn.sup_norm()} exceeds 2^{t}"
        cert = chang_junta(q, t, d, gamma)
        if not cert.success and err is None:
            err = (f"{len(cert.violations)} independent large coefficients "
                   f"exceed the 2t/gamma^2 budget")
        junta = cert.junta & S or _NO_VARS
        max_bad = max((abs(v) for _, v in _stray_coeffs(q, S, junta, d)),
                      default=_ZERO)
        max_bad = shared.setdefault(max_bad, max_bad)
        records.append(RestrictionRecord(
            density_id=i, junta=junta, max_bad_coeff=max_bad,
            passed_junta_bound=len(junta) <= d,
            passed_coeff_bound=not gamma_below_abs(gamma, max_bad),
            hypothesis_error=err))
    return RestrictionReport(S=S, n=n, m=m, d=d, t=t,
                             gamma_fourth=gamma.fourth_power,
                             records=tuple(records), family_size_ok=family_ok)


def find_good_restriction(densities: Sequence[Density], n: int, m: int,
                          d: int, t: int, max_trials: int,
                          seed: int) -> tuple[frozenset[int], RestrictionReport]:
    """First sampled S whose report passes every density; per-trial seeds
    derive deterministically from (seed, trial index)."""
    best: RestrictionReport | None = None
    for trial in range(max_trials):
        S = sample_restriction(n, m, trial_seed(seed, trial))
        report = replace(check_restriction(densities, S, d, t, m, n),
                         trials_used=trial + 1)
        if report.all_passed:
            return report.S, report
        if best is None or report.passed_count() > best.passed_count():
            best = report
    bad = [] if best is None else [
        f"density {r.density_id}: {r.hypothesis_error}"
        for r in best.records if r.hypothesis_error]
    raise ExhaustedError(
        f"no good restriction within {max_trials} trials"
        + (f"; hypothesis violations: {'; '.join(bad)}" if bad else ""),
        best_report=best)


def epsilon_formula(n: int, m: int, d: int) -> float:
    """The concrete value of the asymptotic error estimate at t = d*log2(n):
    C(m,d) * (sqrt(16*m*t*d)/n^(1/4) + n^(-d/2))."""
    t = d * math.log2(n)
    mc = math.comb(m, d)
    return mc * (math.sqrt(16 * m * t * d) / n ** 0.25 + n ** (-d / 2))


@dataclass(frozen=True, slots=True)
class SlackErrorTerm:
    index: int                     # inequality index in the relaxation
    label: str
    pe_of_error: Fraction          # value of the planted functional on e_i
    coeff_cap: Fraction            # C(m,d) * max bad coefficient
    within_coeff_cap: bool
    within_gamma_cap: bool         # |pe(e_i)| <= C(m,d) * gamma


@dataclass(frozen=True)
class MainInequalityReport:
    relaxation: str
    instance: str
    n: int
    m: int
    d: int
    t: int
    seed: int
    S: tuple[int, ...]
    trials_used: int
    slack_count: int
    slack_count_ok: bool           # R <= n^(d/2)
    family_size_ok: bool
    smooth_count: int              # |Q_t|
    rough_count: int               # slacks outside Q_t
    dropped_slacks: tuple[int, ...]
    lp_planted: Fraction
    sa_base: Fraction
    lhs: Fraction
    gamma_fourth: Fraction
    gamma_upper: Fraction          # rational over-approximation of gamma
    rhs: Fraction                  # exact rational lower bound of the true rhs
    error_terms: tuple[SlackErrorTerm, ...]
    epsilon_n: float
    holds: bool


def main_inequality_experiment(rel: PolyhedralRelaxation, inst0: Instance,
                               d: int, seed: int) -> MainInequalityReport:
    """Full pipeline on one relaxation/instance pair; asserts the value
    inequality lhs >= rhs with rhs a sound rational lower bound of the
    irrational expression (root terms over-approximated by the smallest
    rational of denominator <= 10^6 above them)."""
    n, m = rel.n, inst0.n
    _check_level(d)
    if inst0.max_arity() > d:
        raise HypothesisError(f"arity {inst0.max_arity()} exceeds d = {d}")
    if not 3 <= m <= n / 4:
        raise ParameterError(f"need 3 <= m <= n/4, got m={m}, n={n}")
    t = smoothness_exponent(n, d)
    R = len(rel.inequalities)
    r_ok = R ** 2 <= n ** d
    if not r_ok:
        log.info("slack count %d exceeds n^(d/2); recorded, not fatal", R)

    slacks = slack_functions(rel)
    densities: list[Density | None] = []
    dropped = []
    for i, q in enumerate(slacks):
        mean = q.mean()
        if mean == 0:
            dropped.append(i)
            log.info("slack %d (%s) is identically zero; dropped",
                     i, rel.labels[i])
            densities.append(None)
        else:
            densities.append(Density(q.scaled(1 / mean)))

    sup_cap = 1 << t
    smooth_ids = [i for i, dq in enumerate(densities)
                  if dq is not None and dq.fn.sup_norm_at_most(sup_cap)]
    rough = sum(1 for dq in densities if dq is not None) - len(smooth_ids)
    smooth = [densities[i] for i in smooth_ids]

    S, rep = find_good_restriction(smooth, n, m, d, t, _MAX_TRIALS, seed)
    s_sorted = tuple(sorted(S))
    inst_planted = plant(inst0, s_sorted, n)
    sa_base, pe = sa_value(inst0, d)
    pe_planted = pe_plant(pe, s_sorted, n)
    lp_planted = lp_value(rel, inst_planted)
    lhs = lp_planted - sa_base

    gamma = restriction_gamma(n, m, d, t)
    mc = math.comb(m, d)
    # equal error terms share one object in the report
    shared: dict[Fraction, Fraction] = {}
    terms = []
    for rec, i in zip(rep.records, smooth_ids):
        pe_err = _ZERO
        for alpha, v in _stray_coeffs(smooth[rec.density_id], S, rec.junta, d):
            mv = pe_planted.moments.get(alpha)
            if mv:
                pe_err += v * mv
        cap = mc * rec.max_bad_coeff if rec.max_bad_coeff else _ZERO
        pe_err = shared.setdefault(pe_err, pe_err)
        cap = shared.setdefault(cap, cap)
        terms.append(SlackErrorTerm(
            index=i, label=rel.labels[i], pe_of_error=pe_err, coeff_cap=cap,
            within_coeff_cap=abs(pe_err) <= cap,
            within_gamma_cap=not gamma_below_abs(gamma, Fraction(abs(pe_err), mc))))

    gamma_upper = upper_approx(gamma)
    # exact, n^(d/2), when d is even
    nd_half = upper_approx(QuarticThreshold(n ** (2 * d)))
    rhs = -(mc * gamma_upper + mc * nd_half / (1 << t))
    holds = lhs >= rhs
    report = MainInequalityReport(
        relaxation=rel.name, instance=inst0.name or "instance", n=n, m=m, d=d,
        t=t, seed=seed, S=s_sorted, trials_used=rep.trials_used,
        slack_count=R, slack_count_ok=r_ok, family_size_ok=rep.family_size_ok,
        smooth_count=len(smooth_ids), rough_count=rough,
        dropped_slacks=tuple(dropped), lp_planted=lp_planted, sa_base=sa_base,
        lhs=lhs, gamma_fourth=gamma.fourth_power, gamma_upper=gamma_upper,
        rhs=rhs, error_terms=tuple(terms),
        epsilon_n=epsilon_formula(n, m, d), holds=holds)
    if not holds:
        raise InternalError(
            f"value inequality violated: lhs = {lhs} < rhs = {rhs}")
    return report


# ---------------------------------------------------------------------------
# Symmetric structure and the antidiagonal contradiction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetricStructure:
    found: bool
    junta: frozenset[int]
    # (assignment mask restricted to the junta, sum of all coordinates) -> value
    table: dict[tuple[int, int], Fraction] | None


def detect_symmetric_structure(f: BoolFn, d_max: int) -> SymmetricStructure:
    """Search for the smallest coordinate set J (increasing size, then
    lexicographic) such that f depends only on the assignment to J and
    the sum of all coordinates; exhaustive over the cube.  Requires
    d_max < n/4, the regime where small symmetric families force this
    shape."""
    n = f.n
    if n > caps().detect_n:
        raise SizeCapError(f"n = {n} exceeds detection cap")
    if not 0 <= d_max:
        raise ParameterError("d_max must be nonnegative")
    if 4 * d_max >= n:
        raise ParameterError(
            f"d_max = {d_max} refused: small symmetric families force this "
            f"shape only for d_max < n/4")
    levels = [n - 2 * x.bit_count() for x in range(1 << n)]
    for j_mask in (0,) + sa_variable_masks(n, d_max):
        table: dict[tuple[int, int], int] = {}
        ok = True
        for x, v in enumerate(f.nums):
            prev = table.setdefault((x & j_mask, levels[x]), v)
            if prev != v:
                ok = False
                break
        if ok:
            return SymmetricStructure(True, vars_of(j_mask), {
                key: Fraction(v, f.den) for key, v in table.items()})
    return SymmetricStructure(False, frozenset(), None)


def antidiagonal_restriction(q: BoolFn) -> BoolFn:
    """h(x) = q(x, -x) on half the variables; the coordinate sum of
    (x, -x) is identically zero, so any (junta + level) structure of q
    collapses to a junta of h."""
    if q.n % 2:
        raise InputError("antidiagonal restriction needs an even variable count")
    m = q.n // 2
    half = (1 << m) - 1
    nums = q.nums
    return BoolFn.from_ints(
        m, [nums[x | ((~x & half) << m)] for x in range(1 << m)], q.den)


@dataclass(frozen=True)
class SlackAntidiagonal:
    index: int
    label: str
    support_size: int
    is_small_junta: bool           # support within d coordinates
    pe_value: Fraction             # level-d functional applied to h_i


@dataclass(frozen=True)
class SymmetricCheckReport:
    relaxation: str
    instance: str
    c: Fraction
    d: int
    closure_checked_perms: int     # n! for n <= 6, else 2 (the generators)
    closure_ok: bool
    decomposition_feasible: bool
    sa_base: Fraction
    c_minus_sa: Fraction
    slacks: tuple[SlackAntidiagonal, ...]  # empty when infeasible
    identity_checked: bool
    consistent: bool               # true on every report returned


def _bit_map(targets: Sequence[int]) -> list[int]:
    """moved[x] for every bitmask x over len(targets) bits: bit i of x set
    moves to bit targets[i].  Built by doubling, one bit at a time."""
    moved = [0]
    for t in targets:
        bit = 1 << t
        moved += [y | bit for y in moved]
    return moved


class _SpectralKeys:
    """The distinct tables of a slack family, numbered in order of first
    appearance, each keyed by its den and its nonzero integer spectrum
    over den << n (the cached one, rescaled), which determine the table.

    The image of q under a permutation of the n variables reads q at the
    bit-permuted position, so its Walsh-Hadamard spectrum is q's moved by
    the map the permutation induces on masks: images maps a permutation to
    the family's index map through the moved keys."""

    def __init__(self, slacks: Sequence[BoolFn], n: int):
        self.first: list[int] = []     # per distinct table, its first slack
        self._entries = []
        self._index: dict[tuple[int, frozenset[int]], int] = {}
        for i, q in enumerate(slacks):
            spectrum, scale = integer_spectrum(q)
            # brought over den << n, where each entry is the butterfly's
            # integer (so div divides it), then stored as one int: the
            # numerator shifted above the mask bits
            div = scale // (q.den << n)
            masks = [a for a, _ in spectrum]
            vals = [s // div << n for _, s in spectrum]
            k = self._index.setdefault(
                (q.den, frozenset(map(operator.or_, vals, masks))),
                len(self.first))
            if k == len(self.first):
                self.first.append(i)
                self._entries.append((q.den, masks, vals))

    def images(self, targets: Sequence[int]) -> list[int] | None:
        """The index of each distinct table's image under the permutation
        moving variable i + 1 to targets[i] + 1, or None when an image is
        not in the family."""
        moved = _bit_map(targets).__getitem__
        out = []
        for den, masks, vals in self._entries:
            k = self._index.get(
                (den, frozenset(map(operator.or_, vals, map(moved, masks)))))
            if k is None:
                return None
            out.append(k)
        return out


def _orbits(maps: Sequence[Sequence[int]], size: int) -> list[list[int]]:
    """The orbits of 0 .. size - 1 under the group generated by the maps
    (each a permutation given as a list), ordered by their least element,
    which each orbit lists first."""
    seen = [False] * size
    orbits = []
    for x in range(size):
        if seen[x]:
            continue
        seen[x] = True
        members = [x]
        for y in members:       # grows while it is read
            for moved in maps:
                z = moved[y]
                if not seen[z]:
                    seen[z] = True
                    members.append(z)
        orbits.append(members)
    return orbits


def verify_symmetry_closure(slacks: Sequence[BoolFn], n: int) -> tuple[int, bool]:
    """Closure of the slack family under all n! coordinate permutations,
    checked on the two generators of S_n (the n-cycle and a
    transposition).  Returns the count the report gives (n! for n <= 6,
    otherwise the two generators) and the verdict.

    Each distinct slack is moved through its spectral key (_SpectralKeys);
    the image is in the family exactly when its moved key is.  A
    permutation is injective on keys, so one that maps the finite family
    into itself permutes it; two that generate S_n then make the family
    closed under every permutation.  Every slack is checked under both
    generators."""
    for i, q in enumerate(slacks):
        if q.n != n:
            raise InputError(f"slack {i} lives on {q.n} vars, expected {n}")
    count = math.factorial(n) if n <= 6 else 2
    if n <= 1:
        return count, True     # S_n is trivial
    keys = _SpectralKeys(slacks, n)
    return count, all(keys.images(targets) is not None for targets in (
        (*range(1, n), 0), (1, 0, *range(2, n))))


def _decomposition_generators(inst0: Instance) -> list[tuple[int, ...]]:
    """Generators of a group of automorphisms of the dummy-extended
    instance, as bit permutations of its 2m variables: each transposition
    of inst0's m variables that leaves inst0's satisfied-count table
    unchanged, and the m-cycle and one transposition of the dummy block,
    which no constraint reads."""
    m = inst0.n
    sat = satisfied_counts(inst0)
    generators = []
    for i, j in itertools.combinations(range(m), 2):
        targets = list(range(2 * m))
        targets[i], targets[j] = j, i
        if list(map(sat.__getitem__, _bit_map(targets[:m]))) == sat:
            generators.append(tuple(targets))
    if m >= 2:
        generators.append((*range(m), *range(m + 1, 2 * m), m))
        generators.append((*range(m), m + 1, m, *range(m + 2, 2 * m)))
    return generators


def _orbit_decomposition(c: Fraction, inst0: Instance,
                         rel: PolyhedralRelaxation) -> FarkasDecomposition:
    """farkas_decompose(c, dummy_extend(inst0), rel) for a relaxation whose
    slack family is closed under permutations of its variables, solved in
    orbit space and verified in full space (Boedi, Herr & Joswig 2013;
    Margot 2010).

    A group G of automorphisms of the instance (_decomposition_generators)
    permutes the slack family's distinct tables, so averaging a solution
    over G gives one that is constant on each class (a G-orbit of distinct
    tables) and satisfies every row once it satisfies one row per G-orbit
    of assignments.  The reduced system has a variable per class, whose
    coefficient is the class's sum as integers over the lcm of its dens,
    and one row per orbit of assignments, taken at its least element.
    A solution lifts with each class's value on the first slack of each of
    its tables (later copies of a table get 0); a certificate lifts with
    y_x = y_R / |R| on every x of orbit R.  Either lift is checked by the
    unchanged verifier on the full 2^n-row system of farkas_decompose."""
    n = rel.n
    if n > caps().farkas_n:
        raise SizeCapError(f"n = {n} exceeds decomposition cap")
    extended = dummy_extend(inst0)
    slacks = slack_functions(rel)
    keys = _SpectralKeys(slacks, n)
    generators = _decomposition_generators(inst0)
    images = [keys.images(targets) for targets in generators]
    if None in images:
        raise InternalError("a generator maps a slack out of the family")
    classes = _orbits(images, len(keys.first))
    orbits = _orbits([_bit_map(t) for t in generators], 1 << n)
    reps = [orbit[0] for orbit in orbits]
    tables = []
    for cls in classes:
        fns = [slacks[keys.first[k]] for k in cls]
        den = math.lcm(*(q.den for q in fns))
        total = [0] * len(reps)
        for q in fns:
            f, nums = den // q.den, q.nums
            total = [t + f * nums[x] for t, x in zip(total, reps)]
        tables.append((total, den))
    sol = farkas_feasibility(1 + len(classes),
                             _equality_rows(c, extended, tables, reps))

    width = 1 + len(slacks)
    full = LinearProgram(width, tuple(_decomposition_rows(c, extended,
                                                          slacks, n)),
                         (_ZERO,) * width)
    everything = frozenset(range(width))
    if sol.status == OPTIMAL:
        lam = [_ZERO] * len(slacks)
        for z, cls in zip(sol.point[1:], classes):
            for k in cls:
                lam[keys.first[k]] = z
        lifted = LPSolution(OPTIMAL, value=_ZERO, point=(sol.point[0], *lam),
                            dual_certificate=(_ZERO,) * len(full.constraints))
        _checked(full, lifted, everything)
        return FarkasDecomposition(feasible=True, lam0=sol.point[0],
                                   lam=tuple(lam))
    y = [_ZERO] * (1 << n)
    for y_r, orbit in zip(sol.dual_certificate, orbits):
        share = y_r / len(orbit)
        for x in orbit:
            y[x] = share
    _checked(full, LPSolution(INFEASIBLE, dual_certificate=tuple(y)),
             everything)
    return FarkasDecomposition(feasible=False, certificate=tuple(y))


def symmetric_contradiction_check(inst0: Instance, rel: PolyhedralRelaxation,
                                  c: Fraction, d: int) -> SymmetricCheckReport:
    """Extend the instance with dummy variables, try the conic
    decomposition of c - instance over the (symmetry-closed) slacks, and
    restrict along the antidiagonal.  When c is below the level-d value
    the decomposition must be infeasible: otherwise every antidiagonal
    slack restriction is a nonnegative small junta, the level-d
    functional is nonnegative on it, and applying the functional to the
    decomposition identity would prove c >= level-d value.  A feasible
    decomposition below the value through a slack whose restriction is no
    small junta is a HypothesisError; through small juntas only, a bug.
    Every other outcome is consistent: the argument rules out only a
    feasible decomposition below the value, and above it the relaxation
    may be weaker than level d, so its decomposition may be infeasible.

    The decomposition is solved in orbit space under automorphisms of the
    extended instance and verified in full space (_orbit_decomposition);
    the report carries only its verdict.  A decomposition feasible below
    the value is solved again in full space by farkas_decompose, so that
    the HypothesisError names a slack and multiplier of its vertex."""
    _check_level(d)
    c = Fraction(c)
    n = rel.n
    if n != 2 * inst0.n:
        raise InputError(
            f"relaxation on {n} variables, need twice the instance's {inst0.n}")
    slacks = slack_functions(rel)
    checked, closure_ok = verify_symmetry_closure(slacks, n)
    if not closure_ok:
        raise HypothesisError("slack family is not closed under permutations")

    decomposition = _orbit_decomposition(c, inst0, rel)
    sa_base, pe = sa_value(inst0, d)
    c_minus_sa = c - sa_base
    if decomposition.feasible and c_minus_sa < 0:
        decomposition = farkas_decompose(c, dummy_extend(inst0), rel)

    records: list[SlackAntidiagonal] = []
    identity_checked = False
    if decomposition.feasible:
        restrictions = [antidiagonal_restriction(q) for q in slacks]
        for i, h in enumerate(restrictions):
            support = junta_support(h)
            value = pe_apply(pe, h)
            records.append(SlackAntidiagonal(
                index=i, label=rel.labels[i], support_size=len(support),
                is_small_junta=len(support) <= d, pe_value=value))
        # the decomposition identity survives the antidiagonal restriction
        if not verify_decomposition(c, inst0, decomposition.lam0,
                                    decomposition.lam, restrictions):
            raise InternalError("antidiagonal identity violated")
        identity_checked = True

    if decomposition.feasible and c_minus_sa < 0:
        # feasible below the level-d value: the contradiction's hypothesis
        # fails unless every slack the decomposition uses is a small junta
        for r, lam in zip(records, decomposition.lam):
            if lam > 0 and not r.is_small_junta:
                raise HypothesisError(
                    f"decomposition is feasible at c - value = {c_minus_sa} "
                    f"through slack {r.index} ({r.label}) with multiplier "
                    f"{lam}, whose antidiagonal restriction depends on "
                    f"{r.support_size} > d = {d} coordinates")
        raise InternalError(
            "outcome inconsistent with the level-d value: feasible below "
            f"it, c - value = {c_minus_sa}")
    return SymmetricCheckReport(
        relaxation=rel.name, instance=inst0.name or "instance", c=c, d=d,
        closure_checked_perms=checked, closure_ok=closure_ok,
        decomposition_feasible=decomposition.feasible, sa_base=sa_base,
        c_minus_sa=c_minus_sa, slacks=tuple(records),
        identity_checked=identity_checked, consistent=True)


# ---------------------------------------------------------------------------
# JSON reports: rationals.json_value maps each report dataclass, with
# camelCase keys, "p/q" rationals and floats with 12 digits
# ---------------------------------------------------------------------------


def restriction_report_to_json(report: RestrictionReport,
                               master_seed: int | None = None) -> str:
    obj = json_value(report)
    obj["allPassed"] = report.all_passed
    if master_seed is not None:
        obj["seed"] = master_seed
    return json.dumps(obj, sort_keys=True)


def main_report_to_json(report: MainInequalityReport) -> str:
    return json.dumps(json_value(report), sort_keys=True)


def symmetric_report_to_json(report: SymmetricCheckReport) -> str:
    return json.dumps(json_value(report), sort_keys=True)
