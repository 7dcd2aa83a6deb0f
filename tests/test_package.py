import ast
import copy
import dataclasses
import importlib
import json
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


# the public names by home module, frozen: the lazy namespace must keep
# each name, its place in __all__ and the object it names
PUBLIC = {
    "quat": ["Quaternion", "DEFAULT_TOL", "arg", "complex_representative", "similar"],
    "qmat": ["InvariantSet", "MatH2", "TildeSet", "alpha", "commutator", "det",
             "diagonal", "foreman_invariants", "identity", "in_sigma",
             "invariant_set", "inverse", "lower_triangular", "normalize_to_sigma",
             "parker_short", "tilde_set", "upper_triangular"],
    "moebius": ["ALL_POINTS", "INFINITY", "IsometryClass", "apply",
                "classify_normal_form"],
    "ineq": ["TestReport", "Verdict", "auto_select", "beta_t", "extremality_criteria",
             "hyperbolic_commutator_test", "jg_test", "jss2_test", "jss_test",
             "jssc2_test", "jlt_test", "k_value", "kellerhals_form",
             "non_extreme_tau_test", "rez_test", "s_value", "waterman_test"],
    "dynamics": ["ConvergenceKind", "IterationTrace", "classify_convergence",
                 "extremal_invariance_check", "iterate", "verify_recurrence"],
}


def test_public_names():
    assert qmobius.__all__ == [*(n for names in PUBLIC.values() for n in names),
                               "__version__"]
    assert len(qmobius.__all__) == len(set(qmobius.__all__)) == 51
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"qmobius.{home}")
        for name in names:
            assert getattr(qmobius, name) is getattr(module, name), name
    for name in qmobius.__all__:
        assert not isinstance(getattr(qmobius, name), ModuleType), name


def test_lazy_namespace_is_a_plain_module_namespace():
    assert set(qmobius.__all__) <= set(dir(qmobius))
    assert qmobius.dynamics is importlib.import_module("qmobius.dynamics")
    with pytest.raises(AttributeError) as info:
        qmobius.no_such_name
    assert type(info.value) is AttributeError
    assert str(info.value) == "module 'qmobius' has no attribute 'no_such_name'"
    assert not hasattr(qmobius, "tau0_t0_upper")    # public in ineq, not here


def test_every_private_name_is_read_in_the_package():
    # a private helper that only tests call is a second path to keep in
    # step: each module-level _private def, class or assignment must be a
    # loaded name or an attribute name somewhere in the package
    defined, read = [], set()
    for path in sorted(Path(qmobius.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [f"{path.stem}.{name}" for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert "qmat._conjugate" in defined and "_conjugate" in read
    assert [name for name in defined if name.split(".")[1] not in read] == []


def _respelled_formula(node) -> bool:
    """Whether node spells a formula of ``quat`` inline: |q| as
    ``math.sqrt(_norm2(...))``, or p + q, p - q, -q or the Hamilton product
    as a 4-tuple of unary minus or binary +/- terms."""
    if isinstance(node, ast.Call):
        func, args = node.func, node.args
        return (isinstance(func, ast.Attribute) and func.attr == "sqrt"
                and isinstance(func.value, ast.Name) and func.value.id == "math"
                and len(args) == 1 and isinstance(args[0], ast.Call)
                and isinstance(args[0].func, ast.Name) and args[0].func.id == "_norm2")
    return (isinstance(node, ast.Tuple) and len(node.elts) == 4
            and all((isinstance(e, ast.UnaryOp) and isinstance(e.op, ast.USub))
                    or (isinstance(e, ast.BinOp) and isinstance(e.op, (ast.Add, ast.Sub)))
                    for e in node.elts))


def test_every_quaternion_formula_is_spelled_once():
    # p + q, p - q, -q and |q| are written in quat alone; every other module
    # calls them there, so a scalar type that enters quat enters everywhere
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(qmobius.__file__).parent.glob("*.py"))
             if path.name != "quat.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _respelled_formula(node)]
    assert found == []
    quat = Path(qmobius.__file__).with_name("quat.py")
    # _mul, _add, _sub, _neg and _norm, each once, and the fused kernels
    # _mul_add and _conj_mul_conj, kept for speed as _re_mul is
    assert sum(map(_respelled_formula, ast.walk(ast.parse(quat.read_text())))) == 7


def _builds_past_init(node) -> bool:
    """Whether node is ``_new(Quaternion)`` or ``object.__new__(Quaternion)``:
    a Quaternion made without ``Quaternion.__init__``."""
    if not (isinstance(node, ast.Call) and len(node.args) == 1
            and isinstance(node.args[0], ast.Name) and node.args[0].id == "Quaternion"):
        return False
    func = node.func
    return ((isinstance(func, ast.Name) and func.id == "_new")
            or (isinstance(func, ast.Attribute) and func.attr == "__new__"
                and isinstance(func.value, ast.Name) and func.value.id == "object"))


def test_every_quaternion_is_built_through_its_constructor():
    # one construction path: every coordinate goes through float(), and a
    # probe of Quaternion.__init__ sees every Quaternion the package builds
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(qmobius.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if _builds_past_init(node)]
    assert found == []
    assert _builds_past_init(ast.parse("_new(Quaternion)", mode="eval").body)
    assert _builds_past_init(ast.parse("object.__new__(Quaternion)", mode="eval").body)


# three processes, each running its commands in turn: what each command
# loads on top of import qmobius.cli and the commands before it. Only the
# commands that evaluate a test load ineq: test and extreme do, and iterate
# in every mode (auto reads T's triangle from qmat.shape), invariants and
# classify do not
_PAIR = json.dumps({"S": {"a": [1, 0, 0, 0], "b": [0, 0, 0, 0], "c": [1, 0, 0, 0],
                          "d": [1, 0, 0, 0]},
                    "T": {"a": [1, 0, 0, 0], "b": [0, 0, 1, 0], "c": [0, 0, 0, 0],
                          "d": [1, 0, 0, 0]}})
_T = json.dumps(json.loads(_PAIR)["T"])
_RUNS = [
    [(["iterate", _PAIR, "--steps", "1", "--mode", "auto"], ["dynamics"]),
     (["invariants", _T], []),
     (["classify", _T], ["moebius"]),
     (["iterate", _PAIR, "--steps", "1", "--mode", "upper"], [])],
    [(["test", _PAIR, "--select", "wat"], ["ineq"])],
    [(["extreme", _PAIR, "--steps", "1"], ["dynamics", "ineq"])],
]
_PROBE = """
import json, sys
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "qmobius")
import qmobius
seen = [loaded()]
import qmobius.cli
seen.append(loaded())
stdlib = sorted({"dataclasses", "inspect", "pathlib"} & set(sys.modules))
for argv in json.loads(sys.argv[1]):
    qmobius.cli.main(argv)
    seen.append(loaded())
print(json.dumps([stdlib, seen]))
"""


def test_cli_import_loads_no_dataclasses():
    # every CLI run is a fresh process, so what importing the CLI and running
    # a command load is start-up time; -S keeps site's .pth hooks, which
    # import what they like, out of the result
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    procs = [subprocess.Popen(
        [sys.executable, "-S", "-c", _PROBE, json.dumps([argv for argv, _ in run])],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for run in _RUNS]
    for run, proc in zip(_RUNS, procs):
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr
        stdlib, seen = json.loads(stdout.splitlines()[-1])
        assert stdlib == []
        expected = [["qmobius"],
                    ["qmobius", "qmobius.cli", "qmobius.qmat", "qmobius.quat"]]
        for argv, modules in run:
            expected.append(sorted([*expected[-1], *(f"qmobius.{m}" for m in modules)]))
        assert seen == expected, [argv[0] for argv, _ in run]


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
    fields = tuple(getattr(value, name) for name in value._fields)
    assert value == same and hash(value) == hash(same) == hash(fields)
    assert value is not same and not hasattr(value, "__dict__")
    assert value.__eq__(fields) is NotImplemented and value != fields
    name = value._fields[0]
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
    step = IterationStep(n=0, s=M, det=1.0,
                         entry_norms=(1.0, 2.0, 3.0, 4.0), tau_coords=None,
                         t_coords=None, tau_c=None, t_c=None, extremal_lhs=None)
    assert step.s == M
    assert (step.tau_coords, step.t_coords, step.tau_c, step.t_c,
            step.extremal_lhs) == (None,) * 5
    assert not hasattr(step, "tau") and not hasattr(step, "t")
    assert not hasattr(step, "__dict__")
    step.det = 2.0
    assert step != IterationStep(0, M, 1.0, (1.0, 2.0, 3.0, 4.0),
                                 None, None, None, None, None)
    report = ineq.jss_test(M, MatH2(ONE, I, Quaternion(), ONE))
    for value in (report, traces[0], step, ConvergenceReport(ConvergenceKind.STATIONARY, 0.5)):
        with pytest.raises(TypeError):
            hash(value)
        assert value.__eq__(object()) is NotImplemented
        for other in (copy.copy(value), copy.deepcopy(value),
                      pickle.loads(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))):
            assert type(other) is type(value) and other == value
