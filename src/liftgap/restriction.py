"""Random-restriction pipeline and symmetric-LP checks.

The pipeline: normalize a relaxation's slack functions to densities,
keep the smooth ones (sup norm within 2^t), sample a random m-subset S
of coordinates until every smooth density looks like a small junta with
tiny stray coefficients inside S, plant the base instance and its
optimal level-d functional on S, and machine-check the resulting value
inequality with every error term computed exactly.

Thresholds of the form (16mtd/sqrt(n))^(1/2) are irrational; they are
carried as fourth-power data and every comparison is made on fourth
powers, so all verdicts are exact.  The one floating-point output is the
asymptotic error estimate epsilon(n).

The symmetric side: detect (junta coordinates + level) structure of a
function, restrict along the antidiagonal x -> (x, -x), and observe the
contradiction that kills small symmetric relaxations below the level-d
value.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Sequence

from .boolfn import (BoolFn, Density, FourierCoeffs, chang_junta,
                     fourier_transform, inverse_transform, junta_support,
                     mask_of)
from .caps import caps
from .csp import Instance, dummy_extend, evaluate, plant
from .errors import (ExhaustedError, HypothesisError, InputError,
                     InternalError, ParameterError, SizeCapError)
from .rationals import (QuarticThreshold, SqrtThreshold, format_rational,
                        gamma_below_abs, upper_approx)
from .sa import pe_apply, pe_plant, sa_value
from .slack import (PolyhedralRelaxation, farkas_decompose, lp_value,
                    slack_functions)

log = logging.getLogger(__name__)

# deterministic per-trial seed schedule (64-bit Weyl increment)
_TRIAL_STRIDE = 0x9E3779B97F4A7C15
_SEED_MOD = 1 << 64


def trial_seed(master_seed: int, trial_index: int) -> int:
    return (master_seed + _TRIAL_STRIDE * trial_index) % _SEED_MOD


def restriction_gamma(n: int, m: int, d: int, t: int) -> QuarticThreshold:
    """The coefficient threshold with square 16*m*t*d / sqrt(n), held as
    its exact fourth power (16*m*t*d)^2 / n."""
    return QuarticThreshold(Fraction((16 * m * t * d) ** 2, n))


def smoothness_exponent(n: int, d: int) -> int:
    """Smallest integer t with 2^t >= n^d."""
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


@dataclass(frozen=True)
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


def check_restriction(densities: Sequence[Density], S: AbstractSet[int],
                      d: int, t: int, m: int, n: int) -> RestrictionReport:
    """Grade one sampled subset against every density.  Hypothesis
    violations (family too large, sup norm above 2^t, junta extraction
    over budget for the supplied t) are recorded per density, not fatal.
    """
    if len(S) != m:
        raise InputError(f"|S| = {len(S)} != m = {m}")
    gamma = restriction_gamma(n, m, d, t)
    s_mask = mask_of(S, n)
    family_ok = len(densities) ** 2 <= n ** d
    sup_cap = 1 << t
    records = []
    for i, q in enumerate(densities):
        if q.n != n:
            raise InputError(f"density {i} lives on {q.n} vars, expected {n}")
        err = None
        if q.fn.sup_norm() > sup_cap:
            err = f"sup norm {q.fn.sup_norm()} exceeds 2^{t}"
        cert = chang_junta(q, t, d, gamma)
        if not cert.success and err is None:
            err = (f"{len(cert.violations)} independent large coefficients "
                   f"exceed the 2t/gamma^2 budget")
        junta = frozenset(cert.junta) & frozenset(S)
        j_mask = mask_of(junta, n) if junta else 0
        max_bad = Fraction(0)
        for alpha, v in fourier_transform(q.fn).coeffs.items():
            if alpha and alpha & ~s_mask == 0 and alpha & ~j_mask != 0 \
                    and alpha.bit_count() <= d and abs(v) > max_bad:
                max_bad = abs(v)
        records.append(RestrictionRecord(
            density_id=i, junta=junta, max_bad_coeff=max_bad,
            passed_junta_bound=len(junta) <= d,
            passed_coeff_bound=not gamma_below_abs(gamma, max_bad),
            hypothesis_error=err))
    return RestrictionReport(S=frozenset(S), n=n, m=m, d=d, t=t,
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
        report = check_restriction(densities, S, d, t, m, n)
        report = RestrictionReport(
            S=report.S, n=n, m=m, d=d, t=t, gamma_fourth=report.gamma_fourth,
            records=report.records, family_size_ok=report.family_size_ok,
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


def decompose_restricted_density(q: Density, S: AbstractSet[int],
                                 J: AbstractSet[int]) -> tuple[Density, FourierCoeffs]:
    """Split the conditional of q on S into its junta part (the
    conditional onto J, a true density) and the error part carrying
    exactly the coefficients on subsets of S outside J."""
    if not frozenset(J) <= frozenset(S):
        raise InputError("J must be contained in S")
    n = q.n
    s_mask = mask_of(S, n)
    j_mask = mask_of(J, n) if J else 0
    coeffs = fourier_transform(q.fn).coeffs
    junta_coeffs = {a: v for a, v in coeffs.items() if a & ~j_mask == 0}
    err_coeffs = {a: v for a, v in coeffs.items()
                  if a & ~s_mask == 0 and a & ~j_mask != 0}
    junta_fn = inverse_transform(FourierCoeffs(n, junta_coeffs))
    return Density(junta_fn), FourierCoeffs(n, err_coeffs)


def epsilon_formula(n: int, m: int, d: int) -> float:
    """The concrete value of the asymptotic error estimate at t = d*log2(n):
    C(m,d) * (sqrt(16*m*t*d)/n^(1/4) + n^(-d/2))."""
    t = d * math.log2(n)
    mc = math.comb(m, d)
    return mc * (math.sqrt(16 * m * t * d) / n ** 0.25 + n ** (-d / 2))


@dataclass(frozen=True)
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
                               d: int, seed: int,
                               max_trials: int = 50) -> MainInequalityReport:
    """Full pipeline on one relaxation/instance pair; asserts the value
    inequality lhs >= rhs with rhs a sound rational lower bound of the
    irrational expression (root terms over-approximated by the smallest
    rational of denominator <= 10^6 above them)."""
    n, m = rel.n, inst0.n
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
                  if dq is not None and dq.fn.sup_norm() <= sup_cap]
    rough = sum(1 for dq in densities if dq is not None) - len(smooth_ids)
    smooth = [densities[i] for i in smooth_ids]

    S, rep = find_good_restriction(smooth, n, m, d, t, max_trials, seed)
    s_sorted = tuple(sorted(S))
    inst_planted = plant(inst0, s_sorted, n)
    sa_base, pe = sa_value(inst0, d)
    pe_planted = pe_plant(pe, s_sorted, n)
    lp_planted = lp_value(rel, inst_planted)
    lhs = lp_planted - sa_base

    gamma = restriction_gamma(n, m, d, t)
    mc = math.comb(m, d)
    s_mask = mask_of(S, n)
    terms = []
    for rec, i in zip(rep.records, smooth_ids):
        j_mask = mask_of(rec.junta, n) if rec.junta else 0
        pe_err = Fraction(0)
        for alpha, v in fourier_transform(smooth[rec.density_id].fn).coeffs.items():
            if alpha and alpha & ~s_mask == 0 and alpha & ~j_mask != 0 \
                    and alpha.bit_count() <= d:
                mv = pe_planted.moments.get(alpha)
                if mv:
                    pe_err += v * mv
        cap = mc * rec.max_bad_coeff
        terms.append(SlackErrorTerm(
            index=i, label=rel.labels[i], pe_of_error=pe_err, coeff_cap=cap,
            within_coeff_cap=abs(pe_err) <= cap,
            within_gamma_cap=not gamma_below_abs(gamma, Fraction(abs(pe_err), mc))))

    gamma_upper = upper_approx(gamma)
    if d % 2 == 0:
        nd_half = Fraction(n ** (d // 2))
    else:
        nd_half = upper_approx(SqrtThreshold(Fraction(n ** d)))
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
    for k in range(d_max + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            j_mask = mask_of(combo, n) if combo else 0
            table: dict[tuple[int, int], int] = {}
            ok = True
            for x, v in enumerate(f.nums):
                prev = table.setdefault((x & j_mask, levels[x]), v)
                if prev != v:
                    ok = False
                    break
            if ok:
                return SymmetricStructure(True, frozenset(combo), {
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
    return BoolFn.from_ints(
        m, [q.nums[x | ((~x & half) << m)] for x in range(1 << m)], q.den)


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
    closure_checked_perms: int
    closure_ok: bool
    decomposition_feasible: bool
    sa_base: Fraction
    c_minus_sa: Fraction
    slack_records: tuple[SlackAntidiagonal, ...]  # empty when infeasible
    identity_checked: bool
    consistent: bool


def _permutation_index(perm: Sequence[int], n: int) -> list[int]:
    """The position each table position x reads in x -> q(perm applied to
    x), perm[i] = image of variable i+1."""
    out = []
    for x in range(1 << n):
        y = 0
        for i in range(n):
            if x >> (perm[i] - 1) & 1:
                y |= 1 << i
        out.append(y)
    return out


def verify_symmetry_closure(slacks: Sequence[BoolFn], n: int) -> tuple[int, bool]:
    """Closure of the slack family under coordinate permutations: checked
    against all n! permutations for n <= 6, otherwise against the two
    generators (the n-cycle and a transposition)."""
    family = {(q.den, q.nums) for q in slacks}
    if n <= 6:
        perms = itertools.permutations(range(1, n + 1))
        count = math.factorial(n)
    else:
        cycle_perm = tuple(list(range(2, n + 1)) + [1])
        transposition = tuple([2, 1] + list(range(3, n + 1)))
        perms = iter((cycle_perm, transposition))
        count = 2
    ok = True
    for perm in perms:
        index = _permutation_index(perm, n)
        for q in slacks:
            if (q.den, tuple(map(q.nums.__getitem__, index))) not in family:
                ok = False
                break
        if not ok:
            break
    return count, ok


def symmetric_contradiction_check(inst0: Instance, rel: PolyhedralRelaxation,
                                  c: Fraction, d: int) -> SymmetricCheckReport:
    """Extend the instance with dummy variables, try the conic
    decomposition of c - instance over the (symmetry-closed) slacks, and
    restrict along the antidiagonal.  When c is below the level-d value
    the decomposition must be infeasible: otherwise every antidiagonal
    slack restriction is a nonnegative small junta, the level-d
    functional is nonnegative on it, and applying the functional to the
    decomposition identity would prove c >= level-d value."""
    c = Fraction(c)
    n = rel.n
    if n != 2 * inst0.n:
        raise InputError(
            f"relaxation on {n} variables, need twice the instance's {inst0.n}")
    slacks = slack_functions(rel)
    checked, closure_ok = verify_symmetry_closure(slacks, n)
    if not closure_ok:
        raise HypothesisError("slack family is not closed under permutations")

    extended = dummy_extend(inst0)
    decomposition = farkas_decompose(c, extended, rel)
    sa_base, pe = sa_value(inst0, d)
    c_minus_sa = c - sa_base

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
        lam0, lam = decomposition.lam0, decomposition.lam
        for x in range(1 << inst0.n):
            total = lam0
            for v, h in zip(lam, restrictions):
                if v:
                    total += v * h.values[x]
            if total != c - evaluate(inst0, x):
                raise InternalError("antidiagonal identity violated")
        identity_checked = True
        consistent = c_minus_sa >= 0
    else:
        consistent = c_minus_sa < 0

    if not consistent:
        raise InternalError(
            "outcome inconsistent with the level-d value: feasible="
            f"{decomposition.feasible}, c - value = {c_minus_sa}")
    return SymmetricCheckReport(
        relaxation=rel.name, instance=inst0.name or "instance", c=c, d=d,
        closure_checked_perms=checked, closure_ok=closure_ok,
        decomposition_feasible=decomposition.feasible, sa_base=sa_base,
        c_minus_sa=c_minus_sa, slack_records=tuple(records),
        identity_checked=identity_checked, consistent=consistent)


# ---------------------------------------------------------------------------
# JSON report serialization (rationals "p/q", floats with 12 digits)
# ---------------------------------------------------------------------------


def _float_str(x: float) -> str:
    return format(x, ".12g")


def restriction_report_to_json(report: RestrictionReport,
                               master_seed: int | None = None) -> str:
    obj = {
        "S": sorted(report.S),
        "n": report.n, "m": report.m, "d": report.d, "t": report.t,
        "gammaFourth": format_rational(report.gamma_fourth),
        "familySizeOk": report.family_size_ok,
        "trialsUsed": report.trials_used,
        "allPassed": report.all_passed,
        "records": [{
            "densityId": r.density_id,
            "junta": sorted(r.junta),
            "maxBadCoeff": format_rational(r.max_bad_coeff),
            "passedJuntaBound": r.passed_junta_bound,
            "passedCoeffBound": r.passed_coeff_bound,
            "hypothesisError": r.hypothesis_error,
        } for r in report.records],
    }
    if master_seed is not None:
        obj["seed"] = master_seed
    return json.dumps(obj, sort_keys=True)


def main_report_to_json(report: MainInequalityReport) -> str:
    obj = {
        "relaxation": report.relaxation,
        "instance": report.instance,
        "n": report.n, "m": report.m, "d": report.d, "t": report.t,
        "seed": report.seed,
        "S": list(report.S),
        "trialsUsed": report.trials_used,
        "slackCount": report.slack_count,
        "slackCountOk": report.slack_count_ok,
        "familySizeOk": report.family_size_ok,
        "smoothCount": report.smooth_count,
        "roughCount": report.rough_count,
        "droppedSlacks": list(report.dropped_slacks),
        "lpPlanted": format_rational(report.lp_planted),
        "saBase": format_rational(report.sa_base),
        "lhs": format_rational(report.lhs),
        "gammaFourth": format_rational(report.gamma_fourth),
        "gammaUpper": format_rational(report.gamma_upper),
        "rhs": format_rational(report.rhs),
        "epsilonN": _float_str(report.epsilon_n),
        "holds": report.holds,
        "errorTerms": [{
            "index": term.index,
            "label": term.label,
            "peOfError": format_rational(term.pe_of_error),
            "coeffCap": format_rational(term.coeff_cap),
            "withinCoeffCap": term.within_coeff_cap,
            "withinGammaCap": term.within_gamma_cap,
        } for term in report.error_terms],
    }
    return json.dumps(obj, sort_keys=True)


def symmetric_report_to_json(report: SymmetricCheckReport) -> str:
    obj = {
        "relaxation": report.relaxation,
        "instance": report.instance,
        "c": format_rational(report.c),
        "d": report.d,
        "closureCheckedPerms": report.closure_checked_perms,
        "closureOk": report.closure_ok,
        "decompositionFeasible": report.decomposition_feasible,
        "saBase": format_rational(report.sa_base),
        "cMinusSa": format_rational(report.c_minus_sa),
        "identityChecked": report.identity_checked,
        "consistent": report.consistent,
        "slacks": [{
            "index": r.index,
            "label": r.label,
            "supportSize": r.support_size,
            "isSmallJunta": r.is_small_junta,
            "peValue": format_rational(r.pe_value),
        } for r in report.slack_records],
    }
    return json.dumps(obj, sort_keys=True)
