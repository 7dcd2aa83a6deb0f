"""Quaternionic Moebius groups: arithmetic, invariants, and discreteness tests.

The subpackages map onto the layers of the toolkit:

- :mod:`qmobius.quat`     quaternion scalars
- :mod:`qmobius.qmat`     2x2 quaternionic matrices and conjugacy invariants
- :mod:`qmobius.moebius`  action on the boundary 4-sphere H-hat = H + {inf}
- :mod:`qmobius.ineq`     Joergensen-type inequality and extremality tests
- :mod:`qmobius.dynamics` Shimizu-Leutbecher iteration engine
- :mod:`qmobius.cli`      command-line front end
"""

from types import ModuleType as _ModuleType

from .quat import Quaternion, DEFAULT_TOL, arg, complex_representative, similar
from .qmat import (
    InvariantSet,
    MatH2,
    TildeSet,
    alpha,
    commutator,
    det,
    diagonal,
    foreman_invariants,
    identity,
    in_sigma,
    invariant_set,
    inverse,
    lower_triangular,
    normalize_to_sigma,
    parker_short,
    tilde_set,
    upper_triangular,
)
from .moebius import ALL_POINTS, INFINITY, IsometryClass, apply, classify_normal_form
from .ineq import (
    TestReport,
    Verdict,
    auto_select,
    beta_t,
    extremality_criteria,
    hyperbolic_commutator_test,
    jg_test,
    jss2_test,
    jss_test,
    jssc2_test,
    jlt_test,
    k_value,
    kellerhals_form,
    non_extreme_tau_test,
    rez_test,
    s_value,
    waterman_test,
)
from .dynamics import (
    ConvergenceKind,
    IterationTrace,
    classify_convergence,
    extremal_invariance_check,
    iterate,
    verify_recurrence,
)

__version__ = "0.1.0"

# the public names are the ones imported above; the submodules the imports
# bind as attributes are not
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__all__.append("__version__")
