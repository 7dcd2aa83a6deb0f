"""Joergensen-type inequality tests and pointwise extremality criteria.

Every evaluator returns a :class:`TestReport`. The underlying theorems say
"a discrete non-elementary two-generator group satisfies this inequality";
the evaluators therefore only ever assert the contrapositive:

- OBSTRUCTION: the inequality fails, so the pair cannot generate a
  discrete non-elementary subgroup.
- EXTREMAL: the inequality holds with equality (within ``EXTREMAL_TOL``),
  the signature of an extreme group. This never asserts discreteness.
- NOT_EXTREME: a non-extremeness criterion fired (the pair may still be
  discrete, just not extreme).
- INCONCLUSIVE: everything else. Never asserts discreteness.

Hypotheses split into two kinds. Structural preconditions (shapes of the
matrices, determinant-1 membership, required nonzero entries) gate the
verdict through ``preconditions_met``. Hypotheses that the tool cannot or
should not let gate the verdict (e.g. the similarity caveat on diagonal
entries, or hyperbolicity of a commutator) are recorded as diagnostics
flags instead: for similar complex-conjugate diagonal entries the K-form
below reduces exactly to the classical Joergensen quantity |tr^2 - 4|, so
a failed inequality is still a genuine obstruction there.
"""

from __future__ import annotations

import enum
import math

from .quat import (Quaternion, ONE, ZERO, DEFAULT_TOL, _Value, _add, _arg, _conj,
                   _im_norm, _inv, _mul, _mul_add, _neg, _norm, _norm2, _re_mul,
                   _similar, _sub, arg)
from . import qmat
from .qmat import MatH2, _displacement, _k_value

# An extremal verdict means an exact equality held; the fixed slack is
# wider than arithmetic rounding but far below any interesting margin.
EXTREMAL_TOL = 1e-7

_SQRT2 = math.sqrt(2.0)
EPS_GENERIC = 1.0 / (4.0 * _SQRT2)   # displacement bound, Re(lambda) != 0
EPS_PURE_IMAGINARY = 0.25            # displacement bound, Re(lambda) = 0


class Verdict(enum.Enum):
    OBSTRUCTION = "obstruction"
    INCONCLUSIVE = "inconclusive"
    EXTREMAL = "extremal"
    NOT_EXTREME = "not_extreme"


class TestReport(_Value):
    """Outcome of one inequality evaluation.

    ``margin`` is always ``lhs - threshold``; OBSTRUCTION requires
    preconditions and margin < -EXTREMAL_TOL, EXTREMAL requires
    preconditions and |margin| <= EXTREMAL_TOL. ``diagnostics`` maps
    names to floats (flags are encoded 0.0/1.0).
    """

    _fields = ("test_name", "lhs", "threshold", "margin", "verdict",
               "preconditions_met", "diagnostics")

    def __init__(self, test_name: str, lhs: float, threshold: float,
                 margin: float, verdict: Verdict, preconditions_met: bool,
                 diagnostics: dict[str, float] | None = None):
        self.test_name = test_name
        self.lhs = lhs
        self.threshold = threshold
        self.margin = margin
        self.verdict = verdict
        self.preconditions_met = preconditions_met
        self.diagnostics = {} if diagnostics is None else diagnostics

    def to_dict(self) -> dict:
        return {
            "test_name": self.test_name,
            "lhs": self.lhs,
            "threshold": self.threshold,
            "margin": self.margin,
            "verdict": self.verdict.value,
            "preconditions_met": self.preconditions_met,
            "diagnostics": dict(self.diagnostics),
        }


def _inequality_report(name: str, lhs: float, threshold: float,
                       preconditions_met: bool,
                       diagnostics: dict[str, float]) -> TestReport:
    margin = lhs - threshold
    if not preconditions_met:
        verdict = Verdict.INCONCLUSIVE
    elif margin < -EXTREMAL_TOL:
        verdict = Verdict.OBSTRUCTION
    elif abs(margin) <= EXTREMAL_TOL:
        verdict = Verdict.EXTREMAL
    else:
        verdict = Verdict.INCONCLUSIVE
    return TestReport(name, lhs, threshold, margin, verdict,
                      preconditions_met, diagnostics)


# ---------------------------------------------------------------------------
# scalar building blocks


def k_value(lam: Quaternion, mu: Quaternion) -> float:
    """(Re lam - Re mu)^2 + (|Im lam| + |Im mu|)^2.

    The square of the largest distance between the similarity classes of
    lam and mu; the driving constant of every diagonal-generator test.
    """
    return _k_value(lam._c, mu._c)


def kellerhals_form(lam: Quaternion, mu: Quaternion) -> float:
    """2(cosh(tau) - cos(alpha + beta)) with tau = 2 log max(|lam|, |mu|).

    Equals :func:`k_value` whenever |lam| |mu| = 1 (the determinant-1
    diagonal case); the translation-length / rotation-angle form of K.
    """
    r = max(lam.norm(), mu.norm())
    tau = 2.0 * math.log(r)
    return 2.0 * (math.cosh(tau) - math.cos(arg(lam) + arg(mu)))


def beta_t(lam: Quaternion, mu: Quaternion) -> float:
    """sup over e, f != 0 of |(lam - e mu e^-1)(lam - f mu f^-1)|.

    The supremum factorizes over the similarity sphere of mu and each
    factor peaks where Im(e mu e^-1) is antiparallel to Im(lam), giving
    sqrt(K) per factor; the closed form is exactly :func:`k_value`.
    """
    return k_value(lam, mu)


def s_value(lam: Quaternion, mu: Quaternion) -> float:
    """|mu| (|Im lam| + |Im mu|), with |mu| the larger of the two norms."""
    return _s_value(lam._c, mu._c)


def _s_value(lam, mu) -> float:
    return max(_norm(lam), _norm(mu)) * (_im_norm(lam) + _im_norm(mu))


def _power(base: float, exponent) -> float:
    """base ** exponent, or inf where that overflows. A report holding it is
    not finite, which the CLI rejects as an overflowed result (exit 2)."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def displacement_threshold(s: float, eps: float) -> float:
    """(1 + sqrt(1 - s/eps)) / 2, clamped when s overshoots eps."""
    disc = 1.0 - s / eps
    return (1.0 + math.sqrt(disc if disc > 0.0 else 0.0)) / 2.0


def tau0_t0_upper(s: MatH2, t: MatH2) -> tuple[Quaternion, Quaternion]:
    """Displacement quantities for an upper-triangular T = [[lam, eta], [0, mu]].

    tau0 = lam (-c^-1 d) + eta + (c^-1 d) mu
    t0   = lam (a c^-1)  + eta - (a c^-1) mu

    with a, c, d from S. Factor order matters and is exactly as written.
    Read from :func:`qmat._displacement`, bitwise the ``Quaternion`` expressions
    above (``c.inverse()`` for c^-1); |c| not above NONZERO_TOL raises.
    """
    _, tau0, t0, _, _, _ = _displacement(s._coords, t._coords, "upper")
    if tau0 is None:
        raise ValueError("S and T share a fixed point; pair is elementary-suspect")
    return (Quaternion(*tau0), Quaternion(*t0))


def _pair_gates(s: MatH2, t: MatH2, tol: float, shapes: tuple[str, ...],
                dets: tuple[float, float] | None = None) -> tuple[bool, dict[str, float]]:
    """Whether T has one of ``shapes`` (:func:`qmat.shape`) and S and T both
    have determinant 1 within tol; diagnostics start with det_S and det_T.
    ``dets`` are those two determinants when the caller has them already."""
    det_s, det_t = (qmat.det(s), qmat.det(t)) if dets is None else dets
    diag = {"det_S": det_s, "det_T": det_t}
    ok = (qmat.shape(t, tol) in shapes
          and abs(diag["det_S"] - 1.0) <= tol and abs(diag["det_T"] - 1.0) <= tol)
    return ok, diag


def _coupling_ok(norm: float, tol: float, diag: dict[str, float], flag: str) -> bool:
    """A coupling entry is nonzero above tol and above ``NONZERO_TOL`` (where
    tau0/t0 become undefined); a zero one means S and T share a fixed point,
    a failed gate that sets ``diag[flag]`` (``b_zero`` or ``c_zero``) to 1."""
    if norm > max(tol, qmat.NONZERO_TOL):
        return True
    diag[flag] = 1.0
    return False


# ---------------------------------------------------------------------------
# diagonal-generator tests


def _diagonal_gates(s: MatH2, t: MatH2, tol: float) -> tuple[bool, dict[str, float]]:
    """The gates of the diagonal family: :func:`_pair_gates`, and b and c of
    S both nonzero (:func:`_coupling_ok`). A zero one fixes 0 or infinity,
    which the diagonal T fixes too, so the pair is elementary: a failed gate
    with the ``b_zero`` / ``c_zero`` flag."""
    lam, _, _, mu = t._coords
    ok, diag = _pair_gates(s, t, tol, ("diagonal",))
    b_norm, c_norm = _norm(s._coords[1]), _norm(s._coords[2])
    diag.update({
        "bc_norm": b_norm * c_norm,
        "K": _k_value(lam, mu),
        "lambda_similar_mu": 1.0 if _similar(lam, mu, tol) else 0.0,
    })
    b_ok = _coupling_ok(b_norm, tol, diag, "b_zero")
    c_ok = _coupling_ok(c_norm, tol, diag, "c_zero")
    return ok and b_ok and c_ok, diag


def jss_test(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Diagonal (semisimple) generator test: K (1 + |bc|) >= 1.

    K is :func:`k_value` of the diagonal entries of T and |bc| the product
    norm |b||c| from S. Falling under 1 obstructs discreteness; equality is
    the extreme-group signature. The similarity caveat on the diagonal
    entries is recorded in diagnostics but does not gate the verdict (for
    similar complex-conjugate entries this is the classical Joergensen
    quantity).
    """
    ok, diag = _diagonal_gates(s, t, tol)
    lhs = diag["K"] * (1.0 + diag["bc_norm"])
    return _inequality_report("jss", lhs, 1.0, ok, diag)


def jssc2_test(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Similarity-sup variant beta(T) (1 + |bc|) >= 1.

    beta(T) coincides with K in closed form, so this is the report of
    :func:`jss_test` under its own name, with beta(T) in diagnostics.
    """
    report = jss_test(s, t, tol=tol)
    report.test_name = "jssc2"
    report.diagnostics["beta_T"] = report.diagnostics["K"]
    return report


def jss2_test(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Weaker diagonal test beta(T) L^k >= 1, L = 1 + |mu|, k = [1 + |bc|] + 1.

    |mu| is the larger-norm diagonal entry and [.] the floor. Strictly
    weaker than :func:`jss_test` (L > 1 and L^k >= 1 + |bc|), so an
    obstruction here is a stronger statement about the pair.
    """
    ok, diag = _diagonal_gates(s, t, tol)
    bt = diag["K"]  # beta(T) is K in closed form (beta_t)
    big = max(_norm(t._coords[0]), _norm(t._coords[3]))
    bc_norm = diag["bc_norm"]
    # an overflowed |bc| has no floor; it stays the (non-finite) exponent
    k_exp = math.floor(1.0 + bc_norm) + 1 if math.isfinite(bc_norm) else bc_norm
    ell = 1.0 + big
    diag.update({"beta_T": bt, "L": ell, "k": float(k_exp)})
    lhs = bt * _power(ell, k_exp)
    return _inequality_report("jss2", lhs, 1.0, ok, diag)


def hyperbolic_commutator_test(a: MatH2, b: MatH2,
                               tol: float = DEFAULT_TOL) -> TestReport:
    """Strictly hyperbolic commutator test |delta_A^2 - 4| + |delta_[A,B] - 2| >= 1.

    Requires A in the normal form diag(k, 1/k) with k real, |k| != 1, and
    B in Sigma with c != 0 (flag ``c_zero``). The theorem additionally
    assumes the commutator is strictly hyperbolic, which is not
    algorithmically checkable here; the report carries
    ``commutator_hyperbolicity_unverified`` = 1 always.
    delta_[A,B] is the trace of :func:`qmat.commutator` without the matrix,
    bitwise the ``a.re + d.re`` of ``commutator(a, b)``, computed with
    alpha of A and of B, which the determinant gates read too; A singular
    or overflowing is reported before B.
    """
    lam, _, _, mu = a._coords
    _, b_b, b_c, _ = b._coords
    k = lam[0]
    alpha_a, alpha_b, delta_comm = qmat._alphas_and_commutator_trace(a, b)
    ok, dets = _pair_gates(b, a, tol, ("diagonal",),
                           (math.sqrt(alpha_b), math.sqrt(alpha_a)))
    normal_form = (_im_norm(lam) <= tol and _im_norm(mu) <= tol
                   and abs(k * mu[0] - 1.0) <= tol)
    nontrivial = abs(abs(k) - 1.0) > tol and abs(k) > tol

    delta_a = k + mu[0]
    sigma_b, _ = qmat._parker_short(b._coords)
    term_a = abs(delta_a * delta_a - 4.0)
    term_c = abs(delta_comm - 2.0)
    diag = {
        "k": k,
        "delta_A": delta_a,
        "delta_commutator": delta_comm,
        "term_A": term_a,
        "term_commutator": term_c,
        "re_b_sigma_c": _re_mul(_mul(b_b, _conj(sigma_b)), b_c),
        "commutator_hyperbolicity_unverified": 1.0,
        "det_B": dets["det_S"],
    }
    ok = _coupling_ok(_norm(b_c), tol, diag, "c_zero") and ok and normal_form and nontrivial
    return _inequality_report("jh", term_a + term_c, 1.0, ok, diag)


# ---------------------------------------------------------------------------
# triangular-generator tests


def _displacement_test(name: str, s: MatH2, t: MatH2, side: str, re_gate: bool,
                       eps: float, tol: float,
                       extra: dict[str, float] | None = None) -> TestReport:
    """|coupling| sqrt(|tau0| |t0|) >= (1 + sqrt(1 - S/eps)) / 2 on one triangle.

    The skeleton of :func:`jg_test`, :func:`rez_test` and :func:`jlt_test`,
    which pass their own Re-gate and eps. A zero coupling entry
    (:func:`_coupling_ok`) is a failed gate with lhs 0 and the ``c_zero``
    (lower triangle: ``b_zero``) flag. ``extra`` goes into diagnostics ahead
    of the displacement norms, whose key order is part of the output. The
    coupling and displacements are :func:`_displacement` of the side, and
    eta is the off-diagonal entry of T on that side.
    """
    lam, b, c, mu = t._coords
    ok, diag = _pair_gates(s, t, tol, (side, "diagonal"))
    diag["S_value"] = _s_value(lam, mu)
    diag["swapped"] = 1.0 if _norm(lam) > 1.0 + tol else 0.0
    diag.update({"eta_norm": _norm(b if side == "upper" else c), **(extra or {})})
    coupling_norm, _, _, tau0_norm, t0_norm, lhs = _displacement(s._coords, t._coords, side)
    coupling_ok = _coupling_ok(coupling_norm, tol, diag,
                               "c_zero" if side == "upper" else "b_zero")
    ok = ok and re_gate and diag["S_value"] <= eps + tol and coupling_ok
    if coupling_ok:
        diag["tau0_norm"] = tau0_norm
        diag["t0_norm"] = t0_norm
    else:
        lhs = 0.0
    threshold = displacement_threshold(diag["S_value"], eps)
    return _inequality_report(name, lhs, threshold, ok, diag)


def jg_test(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Upper-triangular generator test |c| sqrt(|tau0| |t0|) >= threshold.

    T = [[lam, eta], [0, mu]] with Re(lam) = Re(mu) != 0 and displacement
    budget S(lam, mu) <= 1/(4 sqrt 2); the threshold is
    (1 + sqrt(1 - 4 sqrt(2) S)) / 2. The |lam| <= 1 <= |mu| orientation
    holds automatically for determinant 1 up to the flip conjugation that
    exchanges the triangle corners; a needed flip is recorded in
    diagnostics["swapped"] and leaves all evaluated quantities unchanged.
    """
    lam, _, _, mu = t._coords
    re_gate = abs(lam[0] - mu[0]) <= tol and abs(lam[0]) > tol
    return _displacement_test("jg", s, t, "upper", re_gate, EPS_GENERIC, tol)


def rez_test(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Purely imaginary variant of :func:`jg_test`.

    For Re(lam) = Re(mu) = 0 the displacement budget tightens to
    S <= 1/4 and the threshold to (1 + sqrt(1 - 4 S)) / 2. Real
    lam = mu (zero imaginary parts, S = 0) is accepted as the continuous
    degenerate limit; the unipotent translation pair lands here.
    """
    lam, _, _, mu = t._coords
    re_gate = ((abs(lam[0]) <= tol and abs(mu[0]) <= tol)
               or (_im_norm(lam) <= tol and _im_norm(mu) <= tol
                   and abs(lam[0] - mu[0]) <= tol))
    return _displacement_test("rez", s, t, "upper", re_gate, EPS_PURE_IMAGINARY, tol)


def eta_normalized_test(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Eta-normalized form of :func:`jg_test` for eta != 0.

    Writes tau0 = tau0' eta and t0 = t0' eta, tests
    |c| sqrt(|tau0'| |t0'|) against
    (1 + sqrt(1 - 4 sqrt(2) |eta|^2 S')) / (2 |eta|) with S' = S / |eta|^2.
    The lhs/threshold ratio is identical to the plain test; at |eta| = 1
    the two coincide outright. Gates and diagnostics are those of
    :func:`jg_test`; this route is kept as its oracle.
    """
    eta = t._coords[1]
    if _norm(eta) <= tol:
        raise ValueError("eta-normalized test requires eta != 0")
    base = jg_test(s, t, tol=tol)
    diag = base.diagnostics
    eta_norm = diag["eta_norm"]
    s_prime = diag["S_prime"] = diag["S_value"] / (eta_norm * eta_norm)
    if "c_zero" in diag:
        lhs = 0.0
    else:
        c_norm, tau0, t0, *_ = _displacement(s._coords, t._coords, "upper")
        eta_inv = _inv(eta, _norm2(eta))
        tau0p = diag["tau0_prime_norm"] = _norm(_mul(tau0, eta_inv))
        t0p = diag["t0_prime_norm"] = _norm(_mul(t0, eta_inv))
        lhs = c_norm * math.sqrt(tau0p * t0p)
    disc = 1.0 - 4.0 * _SQRT2 * eta_norm * eta_norm * s_prime
    threshold = (1.0 + math.sqrt(disc if disc > 0.0 else 0.0)) / (2.0 * eta_norm)
    return _inequality_report("eta_normalized", lhs, threshold,
                              base.preconditions_met, diag)


def waterman_test(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Parabolic generator test for T = [[lam, 1], [0, lam]], |lam| = 1.

    Measures the Moebius displacements of the two points a c^-1 and
    -c^-1 d under the triangle T0 = [[lam, eta], [0, mu]] that the shape
    gate accepts, T0(z) - z = (lam z + eta) mu^-1 - z:

        |c| sqrt(|T0(ac^-1) - ac^-1|) sqrt(|T0(-c^-1 d) + c^-1 d|)
            >= (1 + sqrt(1 - 8 |Im lam|)) / 2

    requiring |Im lam| <= 1/8. A lower or full T gets no points and lhs 0,
    as a zero coupling does; a singular triangle is an error. Bridges to
    :func:`rez_test`: each displacement is the corresponding displacement
    quantity times mu^-1, so the left-hand sides agree when |lam| = 1.
    """
    lam, eta, _, mu = t._coords
    a, _, c, d = s._coords
    im_lam = _im_norm(lam)
    ok, diag = _pair_gates(s, t, tol, ("upper", "diagonal"))
    diag.update({"im_lambda": im_lam, "eta_norm": _norm(eta)})
    c_norm = _norm(c)
    c_ok = _coupling_ok(c_norm, tol, diag, "c_zero")
    ok = (ok and _norm(_sub(eta, ONE._c)) <= tol
          and _norm(_sub(lam, mu)) <= tol
          and abs(_norm(lam) - 1.0) <= tol
          and im_lam <= 0.125 + tol and c_ok)
    if c_ok and qmat.shape(t, tol) in ("upper", "diagonal"):
        qmat._nonsingular(qmat._alpha((lam, eta, ZERO._c, mu)))
        cinv = _inv(c, _norm2(c))
        mu_inv = _inv(mu, _norm2(mu))
        points = {"displacement_1": _mul(a, cinv), "displacement_2": _neg(_mul(cinv, d))}
        for key, p in points.items():
            diag[key] = _norm(_sub(_mul(_add(_mul(lam, p), eta), mu_inv), p))
        lhs = (c_norm * math.sqrt(diag["displacement_1"])
               * math.sqrt(diag["displacement_2"]))
    else:
        lhs = 0.0
    threshold = displacement_threshold(im_lam, 0.125)
    return _inequality_report("wat", lhs, threshold, ok, diag)


def _jlt_b_form(s: MatH2, t: MatH2, tol: float) -> TestReport:
    """:func:`jlt_test` with |b| in the lhs: :func:`jg_test` (kappa != 0) or
    :func:`rez_test` (kappa = 0) of the J-flipped pair, flag ``b_zero`` for
    b = 0; the quantity the invariance theorem propagates in lower mode."""
    kappa, mu_re = t._coords[0][0], t._coords[3][0]
    eps = EPS_GENERIC if abs(kappa) > tol else EPS_PURE_IMAGINARY
    return _displacement_test("jlt", s, t, "lower", abs(kappa - mu_re) <= tol,
                              eps, tol, {"kappa": kappa, "eps": eps})


def jlt_test(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Lower-triangular generator test, T = [[lam, 0], [eta, mu]].

    Uses the b-based displacement quantities (:func:`_displacement`) with
    Re(lam) = Re(mu) = kappa and budget S <= eps, where eps is
    1/(4 sqrt 2) for kappa != 0 and 1/4 for kappa = 0; the threshold is
    (1 + sqrt(1 - S/eps)) / 2.

    As printed, the left-hand side multiplies by |c| of S although the
    proof machinery is b-based (:func:`_jlt_b_form`, whose report this is
    when b = 0). Both values are in diagnostics when b != 0.
    """
    report = _jlt_b_form(s, t, tol)
    diag = report.diagnostics
    if "b_zero" in diag:
        return report
    lhs_printed = _norm(s._coords[2]) * math.sqrt(diag["tau0_norm"] * diag["t0_norm"])
    diag.update({"lhs_printed": lhs_printed, "lhs_b_variant": report.lhs})
    return _inequality_report("jlt", lhs_printed, report.threshold,
                              report.preconditions_met, diag)


# ---------------------------------------------------------------------------
# extremality criteria


def extremality_criteria(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """Consequences of equality in the diagonal test, plus non-extremeness.

    When :func:`jss_test` certifies equality, an extreme group forces T to
    be elliptic with angle sum arg(lam) + arg(mu) in (0, pi/3), hence of
    order at least ceil(2 pi / angle sum) >= 7; that bound is reported in
    diagnostics. Equality with a non-elliptic T contradicts discreteness,
    so extremality is never certified there (INCONCLUSIVE with the
    ``non_elliptic_equality`` flag). Independently, the pointwise criterion
    ||ad| - 1| > cot^2((angle sum)/2) - 3 certifies the group is not
    extreme (NOT_EXTREME).
    """
    base = jss_test(s, t, tol=tol)
    lam, _, _, mu = t._coords
    diag = dict(base.diagnostics)
    elliptic = (abs(_norm(lam) - 1.0) <= tol and abs(_norm(mu) - 1.0) <= tol)
    diag["elliptic"] = 1.0 if elliptic else 0.0

    angle_sum = None
    not_extreme = False
    if _norm(lam) > 0.0 and _norm(mu) > 0.0:
        angle_sum = _arg(lam) + _arg(mu)
        diag["angle_sum"] = angle_sum
        if angle_sum > tol:
            bound = 2.0 * math.pi / angle_sum     # inf for a subnormal angle sum
            diag["order_bound"] = float(math.ceil(bound)) if bound < math.inf else bound
            if elliptic:
                half = angle_sum / 2.0
                cot_criterion = _power(math.cos(half) / math.sin(half), 2) - 3.0
                ad_dev = abs(_norm(s._coords[0]) * _norm(s._coords[3]) - 1.0)
                diag.update({"cot_criterion": cot_criterion, "ad_deviation": ad_dev})
                not_extreme = ad_dev > cot_criterion + EXTREMAL_TOL

    verdict = Verdict.INCONCLUSIVE
    if base.preconditions_met:
        if base.verdict is Verdict.EXTREMAL:
            if not elliptic:
                # equality with a non-elliptic T cannot occur in a discrete
                # non-elementary group; decline to certify extremality
                diag["non_elliptic_equality"] = 1.0
            elif angle_sum is not None and angle_sum >= math.pi / 3.0 - tol:
                diag["inconsistency"] = 1.0
            else:
                verdict = Verdict.EXTREMAL
        if not_extreme:
            if base.verdict is Verdict.EXTREMAL:
                diag["inconsistency"] = 1.0
            verdict = Verdict.NOT_EXTREME
    return TestReport("extreme", base.lhs, base.threshold, base.margin,
                      verdict, base.preconditions_met, diag)


def non_extreme_tau_test(s: MatH2, t: MatH2, side: str = "upper",
                         tol: float = DEFAULT_TOL) -> TestReport:
    """Non-extremeness via displacement asymmetry.

    If |tau0 - t0| / (|tau0| |t0|) exceeds |conj(c) d + a conj(c)| the pair
    cannot be extreme. The pair is gated as given; on the lower side the
    displacements and the right-hand side are those of the J-flipped pair
    (:func:`_displacement`), as for :func:`jlt_test`, so the right-hand side
    is |conj(b) a + d conj(b)|. Degenerate displacements (tau0 or t0 ~ 0) are
    reported as inconclusive with a diagnostics flag, and so is a zero
    coupling (:func:`_coupling_ok`, flag ``c_zero``/``b_zero``, failed gate).
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    lam, _, _, mu = t._coords
    ok, diag = _pair_gates(s, t, tol, (side, "diagonal"))
    ok = ok and abs(lam[0] - mu[0]) <= tol
    diag["S_value"] = _s_value(lam, mu)
    eps = EPS_GENERIC if abs(lam[0]) > tol else EPS_PURE_IMAGINARY
    a, _, c, d = s._coords if side == "upper" else s._coords[::-1]
    rhs = _norm(_mul_add(_conj(c), d, a, _conj(c)))
    coupling, tau0, t0, tau0_norm, t0_norm, _ = _displacement(s._coords, t._coords, side)
    if not _coupling_ok(coupling, tol, diag, "c_zero" if side == "upper" else "b_zero"):
        return TestReport(f"non_extreme_{side}", 0.0, rhs, -rhs,
                          Verdict.INCONCLUSIVE, False, diag)
    gap = _norm(_sub(tau0, t0))
    diag.update({"tau0_norm": tau0_norm, "t0_norm": t0_norm,
                 "tau0_minus_t0_norm": gap})
    # the extremal displacement value |c| sqrt(|tau0 t0|) would equal this
    # threshold in an extreme group; recorded for reference
    if diag["S_value"] <= eps:
        diag["kappa0"] = displacement_threshold(diag["S_value"], eps)
    if tau0_norm <= tol or t0_norm <= tol:
        diag["degenerate_displacement"] = 1.0
        return TestReport(f"non_extreme_{side}", 0.0, rhs, -rhs,
                          Verdict.INCONCLUSIVE, ok, diag)
    lhs = gap / (tau0_norm * t0_norm)
    margin = lhs - rhs
    verdict = (Verdict.NOT_EXTREME if ok and margin > EXTREMAL_TOL
               else Verdict.INCONCLUSIVE)
    return TestReport(f"non_extreme_{side}", lhs, rhs, margin, verdict, ok, diag)


# ---------------------------------------------------------------------------
# dispatch


def _jh_on_pair(s: MatH2, t: MatH2, tol: float = DEFAULT_TOL) -> TestReport:
    """``jh`` on the pair (S, T): T is the strictly hyperbolic generator."""
    return hyperbolic_commutator_test(t, s, tol=tol)


# every entry takes the pair (S, T) in that order
TESTS = {
    "jss": jss_test,
    "jss2": jss2_test,
    "jssc2": jssc2_test,
    "jh": _jh_on_pair,
    "jg": jg_test,
    "rez": rez_test,
    "wat": waterman_test,
    "jlt": jlt_test,
    "extreme": extremality_criteria,
}


def auto_select(t: MatH2, tol: float = DEFAULT_TOL) -> str:
    """Pick the test matching T's shape: diagonal -> jss, upper -> jg/rez
    (by the real parts), lower -> jlt. A full matrix matches no gate."""
    kind = qmat.shape(t, tol)
    if kind == "diagonal":
        return "jss"
    if kind == "upper":
        lam, _, _, mu = t._coords
        pure = ((abs(lam[0]) <= tol and abs(mu[0]) <= tol)
                or (_im_norm(lam) <= tol and _im_norm(mu) <= tol))
        return "rez" if pure else "jg"
    if kind == "lower":
        return "jlt"
    raise ValueError("T matches no test shape (neither triangle is zero)")
