from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import scatterlab
from scatterlab import cli, kernels, scattering
from scatterlab.cli import STAGES, RunConfig
from scatterlab.jost import IntegrationReport

ROOT = Path(__file__).resolve().parents[1]

MODULES = ["scatterlab"] + [
    f"scatterlab.{m.name}" for m in pkgutil.iter_modules(scatterlab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


def test_benchmark_call_shapes_bind():
    # the call shapes perfbench/worker.py and perfbench/layertrace.py use
    a = object()
    shapes = [
        (scattering.scattering_data, (a, a), {"rtol": a, "atol": a, "extra_x": a}),
        (kernels.b_kernel, (a,), {"pot": a}),
        (kernels.kd_kernels, (a, a), {"pot": a}),
        (kernels.resonance_functionals, (a, a), {}),
        (kernels.kernel_bound_report, (a, a), {}),
        (kernels.glm_residual, (a, a), {"pot": a, "eval_stride": a}),
        (RunConfig.load, (a,), {}),
        (cli.main, (a,), {}),
    ] + [(getattr(cli, f"cmd_{stage}"), (a, a), {}) for stage in STAGES]
    for fn, args, kwargs in shapes:
        inspect.signature(fn).bind(*args, **kwargs)
    for attr in ("potential", "k_grid", "rtol", "atol"):
        assert hasattr(RunConfig, attr)
    assert "bands" in IntegrationReport.__dataclass_fields__


def test_one_path_inputs_are_required():
    # k = 0 comes from the resonance report, kernel jumps from the potential
    required = [
        (scattering.scattering_matrix, "resonance"),
        (kernels.b_kernel, "pot"),
        (kernels.kd_kernels, "pot"),
        (kernels.glm_residual, "pot"),
    ]
    for fn, name in required:
        param = inspect.signature(fn).parameters[name]
        assert param.default is param.empty, f"{fn.__name__}({name}) has a default"


def test_every_parameter_is_read():
    # a parameter that its function's body never reads changes nothing; the
    # scan also pins that kd_kernels reads both its Jost field and potential
    unread = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread += [f"{path.stem}.{name}({p})" for p in params if p not in read]
    assert not unread, "parameters never read: " + ", ".join(unread)


def _public_functions():
    out = {}
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                out[fn.__name__] = (f"{name}.{attr}", list(inspect.signature(fn).parameters.values()))
    return out


class _CallSites(ast.NodeVisitor):
    """(callee name, call, name of the enclosing def) for every call."""

    def __init__(self):
        self.sites, self._scope = [], [None]

    def visit_FunctionDef(self, node):
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        self.sites.append((name, node, self._scope[-1]))
        self.generic_visit(node)


def _optional(params):
    return {
        p.name for p in params
        if p.default is not p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    }


def test_every_optional_parameter_has_a_caller():
    # an option that no call in src/ or perfbench/ sets is a knob nobody
    # turns but the tests: it should be a constant, and a test that needs
    # another value should reach the private helper.  Forwarding an option
    # of the enclosing public function (rtol=rtol) counts only once that
    # option is set by some caller itself.
    public = _public_functions()
    visitor = _CallSites()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            visitor.visit(ast.parse(path.read_text()))
    is_set = {name: set() for name in public}

    def live(value, scope):
        if scope not in public or not isinstance(value, ast.Name):
            return True
        return value.id not in _optional(public[scope][1]) or value.id in is_set[scope]

    changed = True
    while changed:
        changed = False
        for name, call, scope in visitor.sites:
            if name not in public:
                continue
            params = public[name][1]
            named = {p.name for p in params}
            got = set()
            slots = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    got.update(p.name for p in slots[i:])
                elif i < len(slots) and live(arg, scope):
                    got.add(slots[i].name)
            for kw in call.keywords:
                if not live(kw.value, scope):
                    continue
                if kw.arg is None:  # a ** splat may pass anything
                    got.update(named)
                elif kw.arg in named:
                    got.add(kw.arg)
                else:
                    got.update(p.name for p in params if p.kind == p.VAR_KEYWORD)
            if not got <= is_set[name]:
                is_set[name] |= got
                changed = True
    unset = [
        f"{qual}({opt})"
        for name, (qual, params) in public.items()
        for opt in sorted(_optional(params) - is_set[name])
    ]
    assert not unset, "options no caller sets: " + ", ".join(unset)
