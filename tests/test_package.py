import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import qmobius
from qmobius import ineq, qmat
from qmobius.dynamics import (ConvergenceKind, ConvergenceReport, IterationStep,
                              IterationTrace)
from qmobius.ineq import Verdict
from qmobius.qmat import InvariantSet, MatH2, TildeSet
from qmobius.quat import Quaternion, ONE, I, J, K


def test_public_names():
    assert len(qmobius.__all__) == len(set(qmobius.__all__)) == 51
    assert "__version__" in qmobius.__all__
    for name in qmobius.__all__:
        assert not isinstance(getattr(qmobius, name), ModuleType), name


def test_cli_import_loads_no_dataclasses():
    # every CLI run is a fresh process, so what importing the CLI loads is
    # start-up time; -S keeps site's .pth hooks, which import what they like,
    # out of the result
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, qmobius.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


M = MatH2(Quaternion(2, 0.5, -1, 0.25), Quaternion(0.5, 1), Quaternion(0, 0, 0.3),
          Quaternion(1, 0, 0, -0.5))


def _frozen_values():
    """Equal pairs of each frozen value type, built by position and by keyword."""
    inv = qmat.invariant_set(M)
    tilde = qmat.tilde_set(M)
    return [
        (Quaternion(1, 2.5, -3, 0.25), Quaternion(w=1.0, x=2.5, y=-3.0, z=0.25)),
        (MatH2(ONE, I, J, K), MatH2(a=ONE, b=I, c=J, d=K)),
        (inv, InvariantSet(alpha=inv.alpha, beta=inv.beta, gamma=inv.gamma,
                           delta=inv.delta, sigma=inv.sigma, tau=inv.tau)),
        (tilde, TildeSet(tilde.a_t, tilde.b_t, tilde.c_t, tilde.d_t,
                         tilde.a_s, tilde.b_s, tilde.c_s, tilde.d_s)),
    ]


@pytest.mark.parametrize("value, same", _frozen_values(),
                         ids=["Quaternion", "MatH2", "InvariantSet", "TildeSet"])
def test_frozen_value_type_contract(value, same):
    fields = tuple(getattr(value, name) for name in value.__slots__)
    assert value == same and hash(value) == hash(same) == hash(fields)
    assert value is not same and not hasattr(value, "__dict__")
    assert value.__eq__(fields) is NotImplemented and value != fields
    name = value.__slots__[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, fields[0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(value, name)
    assert getattr(value, name) == fields[0]
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, protocol))
               for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is type(value) and other == value
        assert hash(other) == hash(value)


def test_value_type_reprs():
    assert repr(Quaternion(1, -0.5, 2e-300, 3)) == "Quaternion(1.0, -0.5, 2e-300, 3.0)"
    assert repr(Quaternion()) == "Quaternion(0.0, 0.0, 0.0, 0.0)"
    assert repr(MatH2(ONE, I, J, K)) == (
        "MatH2(a=Quaternion(1.0, 0.0, 0.0, 0.0), b=Quaternion(0.0, 1.0, 0.0, 0.0), "
        "c=Quaternion(0.0, 0.0, 1.0, 0.0), d=Quaternion(0.0, 0.0, 0.0, 1.0))")


def test_mutable_value_types():
    reports = [ineq.TestReport("jss", 1.0, 2.0, -1.0, Verdict.OBSTRUCTION, True)
               for _ in range(2)]
    assert reports[0] == reports[1] and reports[0].diagnostics == {}
    assert reports[0].diagnostics is not reports[1].diagnostics
    traces = [IterationTrace("upper") for _ in range(2)]
    assert traces[0] == traces[1] and traces[0].truncated_reason is None
    assert traces[0].steps == [] and traces[0].steps is not traces[1].steps
    step = IterationStep(n=0, s=M, det=1.0, entry_norms=(1.0, 2.0, 3.0, 4.0))
    assert (step.tau, step.t, step.tau_c, step.t_c, step.extremal_lhs) == (None,) * 5
    assert not hasattr(step, "__dict__")
    step.det = 2.0
    assert step != IterationStep(0, M, 1.0, (1.0, 2.0, 3.0, 4.0))
    report = ineq.jss_test(M, MatH2(ONE, I, Quaternion(), ONE))
    for value in (report, traces[0], step, ConvergenceReport(ConvergenceKind.STATIONARY, 0.5)):
        with pytest.raises(TypeError):
            hash(value)
        assert value.__eq__(object()) is NotImplemented
        for other in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))):
            assert type(other) is type(value) and other == value
