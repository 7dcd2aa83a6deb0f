"""Seeded workload generator.

``generate(workload, seed, outdir)`` writes the input files of one workload
into ``outdir`` and returns its manifest: the ``qmobius`` invocations to run
(``setup`` and ``jobs``), what each one must produce, and why the workload
was chosen. The same workload and seed give byte-identical files.

Most pairs are constructed so that their verdict is known analytically,
with margins either exactly zero (extremal) or far from the 1e-7 extremal
tolerance; the expected verdict is recomputed here from the written
coordinates with the benchmark's own arithmetic. Generic pairs, whose
verdict is not known in closed form, carry ``None`` and are held only to the
report contract.

Run ``python3 perfbench/gen.py <workload> <seed> <outdir>`` to inspect the
inputs of one workload.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import hamilton as H
from check import EXTREMAL_TOL, VERDICT_EXIT

TOL = 1e-9
# margins between these bounds are too close to the extremal tolerance to
# call; constructed pairs never land there, generic ones may
EXACT_BAND = 1e-9
CLEAR_BAND = 1e-6

EPS_GENERIC = 1.0 / (4.0 * math.sqrt(2.0))

SCREEN_AUTO_LINES = 6000
SCREEN_DIAG_LINES = 1500
SCREEN_PARABOLIC_LINES = 1500
COMMUTATOR_FILES = 4
COMMUTATOR_LINES = 750
TRACE_STEPS = 1000
TRACE_PAIRS_PER_MODE = 3

WHY = {
    "screen": "everyday batch screening: JSON parsing and serialising in cli, "
              "the ineq evaluators, moebius.apply through wat, Quaternion "
              "construction; never calls qmat.inverse",
    "commutator": "jh batch on strictly hyperbolic A = diag(k, 1/k): two "
                  "inverses and three products per pair in qmat.commutator, "
                  "so qmat dominates on fresh unit-scale matrices",
    "trace": "long iterate --full traces in all three modes: one inverse and "
             "two products per step on drifting entries, the dynamics step "
             "record and CSV rows; memory grows with the steps held",
}

README_S = ((1.0, 0.0, 0.0, 0.0), H.ZERO, (1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0))
README_T = ((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), H.ZERO, (1.0, 0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# random building blocks


def _axis(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return tuple(x / n for x in v)


def _rot(rng, theta, axis=None):
    """Unit quaternion cos(theta) + sin(theta) u."""
    u = axis or _axis(rng)
    s = math.sin(theta)
    return (math.cos(theta), s * u[0], s * u[1], s * u[2])


def _quat(rng, radius):
    """Quaternion of the given norm in a uniformly random direction."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(4)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-3:
            return tuple(x * radius / n for x in v)


def _complex(rng, radius, axis):
    """Quaternion of the given norm in the plane span{1, axis}."""
    return H.scale(_rot(rng, rng.uniform(0.0, 2.0 * math.pi), axis), radius)


def _lognorm(rng):
    return math.exp(rng.uniform(-0.5, 0.5))


def _sigma(rng, c_norm=None, b_norm=None, axis=None):
    """Random determinant-1 matrix; optional norms of b and c, optional plane."""
    make = (lambda r: _complex(rng, r, axis)) if axis else (lambda r: _quat(rng, r))
    a = make(_lognorm(rng))
    b = make(b_norm if b_norm is not None else _lognorm(rng))
    c = make(c_norm if c_norm is not None else _lognorm(rng))
    return H.sigma_matrix(a, b, c)


def _target(rng, cls):
    """lhs/threshold ratio for a constructed verdict class."""
    if cls == "obstruction":
        return rng.uniform(0.2, 0.9)
    if cls == "extremal":
        return 1.0
    return rng.uniform(1.2, 3.0)


# ---------------------------------------------------------------------------
# expected verdicts, from the written coordinates


def _ineq_verdict(pre, margin):
    if not pre:
        return "inconclusive"
    if abs(margin) <= EXACT_BAND:
        return "extremal"
    if margin < -CLEAR_BAND:
        return "obstruction"
    if margin > CLEAR_BAND:
        return "inconclusive"
    return None


def _k_value(lam, mu):
    dr = lam[0] - mu[0]
    di = H.im_norm(lam) + H.im_norm(mu)
    return dr * dr + di * di


def _diag_expect(s, t):
    """Expected (test name, verdict) of jss, jssc2, jss2 and extreme."""
    lam, mu = t[0], t[3]
    pre = abs(H.norm(lam) * H.norm(mu) - 1.0) <= TOL
    k = _k_value(lam, mu)
    bc = H.norm(s[1]) * H.norm(s[2])
    jss = _ineq_verdict(pre, k * (1.0 + bc) - 1.0)
    if abs(bc - round(bc)) < CLEAR_BAND:
        jss2 = None
    else:
        big = max(H.norm(lam), H.norm(mu))
        jss2 = _ineq_verdict(pre, k * (1.0 + big) ** (math.floor(1.0 + bc) + 1) - 1.0)

    elliptic = abs(H.norm(lam) - 1.0) <= TOL and abs(H.norm(mu) - 1.0) <= TOL
    angle = math.atan2(H.im_norm(lam), lam[0]) + math.atan2(H.im_norm(mu), mu[0])
    if not pre:
        extreme = "inconclusive"
    elif jss is None:
        extreme = None
    else:
        extremal = jss == "extremal" and elliptic and angle < math.pi / 3.0 - CLEAR_BAND
        extreme = "extremal" if extremal else "inconclusive"
        if elliptic and angle > TOL:
            half = angle / 2.0
            crit = (math.cos(half) / math.sin(half)) ** 2 - 3.0
            dev = abs(H.norm(s[0]) * H.norm(s[3]) - 1.0) - (crit + EXTREMAL_TOL)
            if abs(dev) < CLEAR_BAND:
                extreme = None
            elif dev > 0.0:
                extreme = "not_extreme"
    return {"auto": ("jss", jss), "jss": ("jss", jss), "jssc2": ("jssc2", jss),
            "jss2": ("jss2", jss2), "extreme": ("extreme", extreme)}


# ---------------------------------------------------------------------------
# pair constructions: each returns (S, T, {selector: (test_name, verdict)})


def diag_pair(rng, cls):
    """T = diag(lam, mu) elliptic; K(1 + |b||c|) set by the class.

    K = 2 - 2 cos(theta1 + theta2) for unit lam, mu, so the angle sum fixes
    K and |b||c| = target/K - 1 fixes the jss left-hand side. ``gate``
    doubles |lam| so det T = 2; ``not_extreme`` puts the angle sum near
    pi/3 and makes a c a^-1 b a positive real r, so ||a||d| - 1| = r
    exceeds the cot^2 criterion.
    """
    if cls == "not_extreme":
        total = rng.uniform(0.9, 1.0)
    else:
        total = rng.uniform(0.3, 0.9)
    th1 = total * rng.uniform(0.2, 0.8)
    lam, mu = _rot(rng, th1), _rot(rng, total - th1)
    k = 2.0 - 2.0 * math.cos(total)
    a = _quat(rng, _lognorm(rng))
    c = _quat(rng, _lognorm(rng))
    if cls == "not_extreme":
        crit = (1.0 / math.tan(total / 2.0)) ** 2 - 3.0
        r = crit + rng.uniform(0.5, 2.0)
        aca = H.mul(H.mul(a, c), H.inv(a))
        b = H.scale(H.inv(aca), r)
    else:
        if cls == "gate":
            lam = H.scale(lam, 2.0)
            bc = rng.uniform(0.1, 2.0)
        elif cls == "obstruction":
            bc = (k + (0.9 - k) * rng.uniform(0.05, 1.0)) / k - 1.0
        else:
            bc = _target(rng, cls) / k - 1.0
        b = _quat(rng, bc / H.norm(c))
    s = H.sigma_matrix(a, b, c)
    t = (lam, H.ZERO, H.ZERO, mu)
    return s, t, _diag_expect(s, t)


def upper_pair(rng, cls):
    """Upper triangular T with a closed-form lhs |c||eta|.

    ``rez`` uses T = [[+-1, eta], [0, +-1]] (threshold 1) with any S; ``jg`` uses lam = mu = cos + sin u with S in span{1, u}, so
    tau0 = t0 = eta and the threshold is (1 + sqrt(1 - 4 sqrt2 S))/2 with
    S = 2 sin(theta). ``generic`` has noncommuting entries: verdict unknown.
    """
    kind, cls = cls.split(":")
    eta = _quat(rng, _lognorm(rng))
    if kind == "rez":
        sign = rng.choice((1.0, -1.0))
        lam = mu = (sign, 0.0, 0.0, 0.0)
        threshold = 1.0
        s = _sigma(rng, c_norm=_target(rng, cls) / H.norm(eta))
    elif kind == "jg":
        axis = _axis(rng)
        theta = math.asin(rng.uniform(0.01, 0.08))
        lam = mu = _rot(rng, theta, axis)
        sval = 2.0 * H.im_norm(lam)
        threshold = (1.0 + math.sqrt(1.0 - sval / EPS_GENERIC)) / 2.0
        s = _sigma(rng, c_norm=threshold * _target(rng, cls) / H.norm(eta), axis=axis)
    else:
        theta = rng.uniform(0.01, 0.08)
        lam, mu = _rot(rng, theta), _rot(rng, theta)
        s = _sigma(rng)
        return s, (lam, eta, H.ZERO, mu), {"auto": ("jg", None)}
    margin = H.norm(s[2]) * H.norm(eta) - threshold
    return s, (lam, eta, H.ZERO, mu), {"auto": (kind, _ineq_verdict(True, margin))}


def lower_pair(rng, cls):
    """Lower triangular T = [[1, 0], [eta, 1]]: jlt's printed lhs is |c||eta|.

    With lam = mu = 1 both b-based displacement quantities equal eta and
    the threshold is 1. ``generic`` uses unit lam, mu with equal real parts
    and random axes: verdict unknown.
    """
    eta = _quat(rng, _lognorm(rng))
    if cls == "generic":
        theta = rng.uniform(0.01, 0.08)
        return (_sigma(rng), (_rot(rng, theta), H.ZERO, eta, _rot(rng, theta)),
                {"auto": ("jlt", None)})
    s = _sigma(rng, c_norm=_target(rng, cls) / H.norm(eta))
    margin = H.norm(s[2]) * H.norm(eta) - 1.0
    return s, (H.ONE, H.ZERO, eta, H.ONE), {"auto": ("jlt", _ineq_verdict(True, margin))}


def parabolic_pair(rng, cls):
    """T = [[lam, 1], [0, lam]], |lam| = 1: wat's lhs is |c| when S commutes with lam.

    Then T(p) - p = lam^-1 for both measured points, so each displacement
    is 1; the threshold is (1 + sqrt(1 - 8|Im lam|))/2.
    """
    kind, cls = cls.split(":")
    if kind == "real":
        lam, threshold = H.ONE, 1.0
        s = _sigma(rng, c_norm=_target(rng, cls))
    else:
        axis = _axis(rng)
        lam = _rot(rng, math.asin(rng.uniform(0.01, 0.12)), axis)
        if kind == "generic":
            return _sigma(rng), (lam, H.ONE, H.ZERO, lam), {"wat": ("wat", None)}
        threshold = (1.0 + math.sqrt(1.0 - 8.0 * H.im_norm(lam))) / 2.0
        s = _sigma(rng, c_norm=threshold * _target(rng, cls), axis=axis)
    margin = H.norm(s[2]) - threshold
    return s, (lam, H.ONE, H.ZERO, lam), {"wat": ("wat", _ineq_verdict(True, margin))}


def commutator_pair(rng, cls):
    """S = B, T = A = diag(k, 1/k) with real k; the CLI reads T as A.

    For B with entries in one complex plane, tr[A, B] = 2 - bc (k - 1/k)^2,
    so the lhs is u (1 + |Re(bc)|) with u = (k - 1/k)^2; Re(bc) is set by
    the class. ``generic`` B is a random quaternionic matrix.
    """
    k = rng.uniform(1.05, 3.0 if cls == "generic" else 1.55)
    t = ((k, 0.0, 0.0, 0.0), H.ZERO, H.ZERO, (1.0 / k, 0.0, 0.0, 0.0))
    if cls == "generic":
        return _sigma(rng), t, {"jh": ("jh", None)}
    u = (k - 1.0 / k) ** 2
    if cls == "obstruction":
        re_bc = (u + (0.9 - u) * rng.uniform(0.05, 1.0)) / u - 1.0
    else:
        re_bc = _target(rng, cls) / u - 1.0
    axis = _axis(rng)
    a = _complex(rng, _lognorm(rng), axis)
    c = _complex(rng, _lognorm(rng), axis)
    bc = (rng.choice((1.0, -1.0)) * re_bc, 0.0, 0.0, 0.0)
    bc = H.add(bc, H.scale((0.0,) + axis, rng.uniform(-1.0, 1.0)))
    b = H.mul(bc, H.inv(c))
    s = H.sigma_matrix(a, b, c)
    term_a = abs((k + t[3][0]) ** 2 - 4.0)
    margin = term_a + abs(H.mul(s[1], s[2])[0]) * u - 1.0
    return s, t, {"jh": ("jh", _ineq_verdict(True, margin))}


def readme_pair(rng, cls):
    """S = [[1,0],[1,1]], T = [[1,j],[0,1]]: tau0 = t0 = j, rez equality."""
    return README_S, README_T, {"auto": ("rez", "extremal")}


# kind, class, weight: the share of each kind is the same for every seed
SCREEN_AUTO_MIX = (
    [(diag_pair, c, w) for c, w in (("obstruction", 2), ("extremal", 1),
                                    ("inconclusive", 1), ("gate", 1))]
    + [(upper_pair, f"{k}:{c}", 1) for k in ("rez", "jg")
       for c in ("obstruction", "extremal", "inconclusive")]
    + [(upper_pair, "generic:generic", 1), (readme_pair, "", 1)]
    + [(lower_pair, c, 1) for c in ("obstruction", "extremal", "inconclusive",
                                    "generic")]
)
SCREEN_DIAG_MIX = [(diag_pair, c, 1) for c in ("obstruction", "extremal",
                                               "inconclusive", "gate", "not_extreme")]
SCREEN_PARABOLIC_MIX = (
    [(parabolic_pair, f"{k}:{c}", 1) for k in ("real", "plane")
     for c in ("obstruction", "extremal", "inconclusive")]
    + [(parabolic_pair, "generic:generic", 1)]
)
COMMUTATOR_MIX = ([(commutator_pair, c, 1) for c in ("obstruction", "extremal",
                                                     "inconclusive")]
                  + [(commutator_pair, "generic", 3)])


def _corpus(rng, mix, n):
    slots = [(fn, cls) for fn, cls, weight in mix for _ in range(weight)]
    picks = [slots[i % len(slots)] for i in range(n)]
    rng.shuffle(picks)
    return [fn(rng, cls) for fn, cls in picks]


def _pair_json(s, t) -> str:
    return json.dumps({"v": 1, "S": H.encode_matrix(s), "T": H.encode_matrix(t)})


def _write_batch(outdir, name, pairs, selectors, jobs):
    (outdir / name).write_text("".join(_pair_json(s, t) + "\n" for s, t, _ in pairs))
    for select, key in selectors:
        jobs.append({
            "kind": "batch",
            "argv": ["test", name, "--batch", "--select", select],
            "expect": [exp.get(key) for _, _, exp in pairs],
        })


def _setup_jobs(rng, outdir):
    """Single-pair runs, one per exit code, timed as the set-up cost."""
    picks = [(diag_pair(rng, "obstruction"), "auto", "jss"),
             (readme_pair(rng, ""), "auto", "auto"),
             (diag_pair(rng, "inconclusive"), "auto", "jss"),
             (diag_pair(rng, "not_extreme"), "extreme", "extreme")]
    jobs = []
    for i, ((s, t, exp), select, key) in enumerate(picks):
        name = f"single_{i}.json"
        (outdir / name).write_text(_pair_json(s, t) + "\n")
        test_name, verdict = exp[key]
        jobs.append({"kind": "single", "argv": ["test", name, "--select", select],
                     "expect": [(test_name, verdict)], "exit": VERDICT_EXIT[verdict]})
    return jobs


def _trace_jobs(rng, outdir):
    """Bounded pairs in every mode, plus the README pair, which blows up.

    Each pair contracts its coupling entry (c, or b in lower mode) towards
    a shared fixed point, so entries drift over many orders of magnitude
    and then sit in a stationary tail where they are below the zero
    cutoffs. Elliptic T with angles near the edge of contraction make the
    drift last hundreds of steps; the unipotent T contracts quadratically.
    The angles are fixed and only axes and entries are drawn, so the length
    of the drift, and with it the cost of a step, is nearly the same for
    every seed.
    """
    pairs = []
    for _ in range(TRACE_PAIRS_PER_MODE):
        # K = 2 - 2 cos(0.97) ~ 0.87 and K (1 + |bc|) < 1: |bc| contracts
        # by about K per step
        s = _sigma(rng, b_norm=0.2, c_norm=0.2)
        pairs.append(("diagonal", s, (_rot(rng, 0.485), H.ZERO, H.ZERO, _rot(rng, 0.485))))
    for mode in ("upper", "lower"):
        for i in range(TRACE_PAIRS_PER_MODE):
            eta = _quat(rng, _lognorm(rng))
            if i == 0:
                lam = mu = H.ONE
                coupling = rng.uniform(0.4, 0.8) / H.norm(eta)
            else:
                lam, mu = _rot(rng, 0.25), _rot(rng, 0.85)
                coupling = 0.05
            if mode == "upper":
                s, t = _sigma(rng, c_norm=coupling), (lam, eta, H.ZERO, mu)
            else:
                s, t = _sigma(rng, b_norm=coupling), (lam, H.ZERO, eta, mu)
            pairs.append((mode, s, t))
    pairs.append(("upper", README_S, README_T))
    jobs = []
    for i, (mode, s, t) in enumerate(pairs):
        name = f"trace_{i}.json"
        (outdir / name).write_text(_pair_json(s, t) + "\n")
        jobs.append({"kind": "trace",
                     "argv": ["iterate", name, "--steps", str(TRACE_STEPS),
                              "--mode", mode, "--full"],
                     "S": H.encode_matrix(s), "T": H.encode_matrix(t),
                     "steps": TRACE_STEPS})
    return jobs


def generate(workload: str, seed: int, outdir) -> dict:
    """Write the inputs of ``workload`` for ``seed`` into ``outdir``."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"qmobius-bench:{workload}:{seed}")
    setup = _setup_jobs(rng, outdir)
    jobs: list[dict] = []
    if workload == "screen":
        _write_batch(outdir, "screen_auto.jsonl",
                     _corpus(rng, SCREEN_AUTO_MIX, SCREEN_AUTO_LINES),
                     [("auto", "auto")], jobs)
        _write_batch(outdir, "screen_diag.jsonl",
                     _corpus(rng, SCREEN_DIAG_MIX, SCREEN_DIAG_LINES),
                     [(sel, sel) for sel in ("jss2", "jssc2", "extreme")], jobs)
        _write_batch(outdir, "screen_parabolic.jsonl",
                     _corpus(rng, SCREEN_PARABOLIC_MIX, SCREEN_PARABOLIC_LINES),
                     [("wat", "wat")], jobs)
    elif workload == "commutator":
        for i in range(COMMUTATOR_FILES):
            _write_batch(outdir, f"commutator_{i}.jsonl",
                         _corpus(rng, COMMUTATOR_MIX, COMMUTATOR_LINES),
                         [("jh", "jh")], jobs)
    else:
        jobs = _trace_jobs(rng, outdir)
    manifest = {"workload": workload, "seed": seed, "why": WHY[workload],
                "setup": setup, "jobs": jobs}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def probe_pairs(seed: int, per_selector: int = 40) -> dict:
    """Pairs of the matching shape for each selector, for per-call timing.

    ``jh`` pairs are (S, T) as the CLI reads them: T is the hyperbolic A.
    """
    rng = random.Random(f"qmobius-bench:probe:{seed}")
    mixes = {
        "jss": SCREEN_DIAG_MIX, "jss2": SCREEN_DIAG_MIX, "jssc2": SCREEN_DIAG_MIX,
        "extreme": SCREEN_DIAG_MIX, "jh": COMMUTATOR_MIX,
        "jg": [(upper_pair, f"jg:{c}", 1) for c in ("obstruction", "inconclusive")],
        "rez": [(upper_pair, f"rez:{c}", 1) for c in ("obstruction", "inconclusive")],
        "wat": SCREEN_PARABOLIC_MIX,
        "jlt": [(lower_pair, c, 1) for c in ("obstruction", "inconclusive", "generic")],
    }
    return {sel: [(s, t) for s, t, _ in _corpus(rng, mix, per_selector)]
            for sel, mix in mixes.items()}


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: gen.py <workload> <seed> <outdir>")
    generate(sys.argv[1], int(sys.argv[2]), sys.argv[3])
