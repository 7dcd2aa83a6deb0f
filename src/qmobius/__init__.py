"""Quaternionic Moebius groups: arithmetic, invariants, and discreteness tests.

The subpackages map onto the layers of the toolkit:

- :mod:`qmobius.quat`     quaternion scalars
- :mod:`qmobius.qmat`     2x2 quaternionic matrices and conjugacy invariants
- :mod:`qmobius.moebius`  action on the boundary 4-sphere H-hat = H + {inf}
- :mod:`qmobius.ineq`     Joergensen-type inequality and extremality tests
- :mod:`qmobius.dynamics` Shimizu-Leutbecher iteration engine
- :mod:`qmobius.cli`      command-line front end

``import qmobius`` loads none of them: a public name, or a submodule read
as an attribute, imports its module on first access (PEP 562), so a
process loads only the layers it uses.
"""

import sys as _sys

__version__ = "0.1.0"

# each public name and the submodule that defines it
_HOME = {
    **dict.fromkeys(("Quaternion", "DEFAULT_TOL", "arg", "complex_representative",
                     "similar"), "quat"),
    **dict.fromkeys(("InvariantSet", "MatH2", "TildeSet", "alpha", "commutator", "det",
                     "diagonal", "foreman_invariants", "identity", "in_sigma",
                     "invariant_set", "inverse", "lower_triangular",
                     "normalize_to_sigma", "parker_short", "tilde_set",
                     "upper_triangular"), "qmat"),
    **dict.fromkeys(("ALL_POINTS", "INFINITY", "IsometryClass", "apply",
                     "classify_normal_form"), "moebius"),
    **dict.fromkeys(("TestReport", "Verdict", "auto_select", "beta_t",
                     "extremality_criteria", "hyperbolic_commutator_test", "jg_test",
                     "jss2_test", "jss_test", "jssc2_test", "jlt_test", "k_value",
                     "kellerhals_form", "non_extreme_tau_test", "rez_test", "s_value",
                     "waterman_test"), "ineq"),
    **dict.fromkeys(("ConvergenceKind", "IterationTrace", "classify_convergence",
                     "extremal_invariance_check", "iterate", "verify_recurrence"),
                    "dynamics"),
}
_SUBMODULES = ("quat", "qmat", "moebius", "ineq", "dynamics", "cli")

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    """Import the module behind a public name or a submodule on first access;
    the value is then a plain module global."""
    home = _HOME.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{home or name}"
    __import__(qualified)       # not importlib: python -S has not loaded it
    module = _sys.modules[qualified]
    if home is None:
        return module           # the import bound it as an attribute already
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
