from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
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


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about 0.6 s to import, and every stage pays for
    # what `import scatterlab` and the CLI (every module but kernels) pull in
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = "import sys, scatterlab, scatterlab.cli; print('scipy.signal' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_cli_stages_run_on_numpy_and_the_bare_scipy_package(tmp_path):
    # a stage is a fresh process, and scipy.optimize with what it pulls in
    # (linalg, sparse, special), scipy.fft and scipy.interpolate cost it
    # about 0.5 s of set-up; only the kernels stage loads a scipy
    # submodule.  A stage loads nothing the import left out: numpy.ma (loaded
    # by np.unique on first use) and numpy.fft come with the package
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    code = """if True:
        import json, sys
        import scatterlab, scatterlab.cli
        heavy = ("optimize", "fft", "interpolate", "linalg", "sparse", "special")
        out = {"loaded": [m for m in heavy if f"scipy.{m}" in sys.modules]}
        for stage in ("scatter", "wiener"):
            before = set(sys.modules)
            args = [stage, "--override", "potential.name=square_well", "--out", sys.argv[1] + stage]
            out[stage] = [scatterlab.cli.main(args), sorted(set(sys.modules) - before)]
        print(json.dumps(out))
    """
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path) + os.sep], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.strip().splitlines()[-1])
    assert out == {"loaded": [], "scatter": [0, []], "wiener": [0, []]}


def test_only_kernels_imports_a_scipy_submodule_at_module_level():
    # a module-level import of a scipy submodule is paid by every stage's
    # start-up; kernels (CubicSpline) is imported by its own stage alone, and
    # an import inside a function (potentials.load_sampled) costs only its
    # callers
    eager = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.stem == "kernels":
            continue
        stack = list(ast.parse(path.read_text()).body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            eager += [f"{path.stem}: {n}" for n in names if n.startswith("scipy.")]
    assert not eager, "scipy submodules imported at module level: " + ", ".join(eager)


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


# per-layer benchmark names whose function has left its module: they read 0
# (jost.compute_h went into jost.compute_h_pair, which the benchmark's
# reader does not know; oscquad.fresnel_weights and jost.zero_energy_scan
# went earlier).  A change to the benchmark drops them from this set.
STALE = {
    "jost.compute_h.s",
    "jost.compute_h.nfev",
    "jost.compute_h.peak_rise_mb",
    "jost.zero_energy_scan.s",
    "oscquad.fresnel_weights.s",
    "oscquad.fresnel_weights.calls",
    "oscquad.fresnel_weights.nodes",
}


def test_benchmark_layer_names_name_public_functions():
    # every per-layer name <module>.<function>.<quantity> of a scatterlab
    # module names a function in that module's __all__, or is on STALE; a
    # STALE name is in the benchmark and its function is in fact gone
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    modules = {m.split(".")[-1] for m in MODULES}
    layered = [n.split(".") for n in names if n.count(".") == 2 and n.split(".")[0] in modules]
    live = {
        ".".join(parts) for parts in layered
        if parts[1] in importlib.import_module(f"scatterlab.{parts[0]}").__all__
    }
    assert sorted(".".join(parts) for parts in layered if ".".join(parts) not in live) == sorted(STALE)
    assert STALE <= set(names)


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


def test_only_oscquad_reaches_its_private_names():
    # oscquad owns the panel rule and its tables; other modules use its
    # public names only
    reached = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.stem == "oscquad":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("oscquad"):
                reached += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                if isinstance(node.value, ast.Name) and node.value.id == "oscquad":
                    reached.append(f"{path.stem}: oscquad.{node.attr}")
    assert not reached, "private oscquad names used elsewhere: " + ", ".join(reached)


def test_one_rule_integrates_v():
    # src/ integrates V by one rule, potentials._v_integrals: no module
    # imports quadpack or an interpolant of tail masses, and kernels reaches
    # η± and γ± only through potentials.eta and potentials.gamma_moment
    banned = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                names = [mod] + [f"{mod}.{a.name}" for a in node.names] + [a.name for a in node.names]
            else:
                continue
            banned += [
                f"{path.stem}: {n}" for n in names
                if n.startswith("scipy.integrate") or n == "PchipInterpolator"
            ]
    assert not banned, "second integration routes: " + ", ".join(banned)
    tree = ast.parse((ROOT / "src" / "scatterlab" / "kernels.py").read_text())
    from_potentials = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("potentials")
        for a in node.names
    }
    assert from_potentials <= {"Potential", "cutoff_for_eta", "eta", "gamma_moment"}
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert {"eta", "gamma_moment"} <= called
    own = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and ("eta" in node.name or "gamma" in node.name)
    ]
    assert not own, "kernels builds its own tail moments: " + ", ".join(own)


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


# public functions that nothing in src/ or perfbench/ calls; the tests reach
# them as entry points of their own
TEST_ONLY = {"pac_kernel", "threshold_projection_residual", "weighted_norm", "moment_norm"}


def test_public_functions_without_a_caller_are_listed():
    # every public function has a caller in src/ or perfbench/ or sits on
    # TEST_ONLY; a call from a private src helper that nothing in src/ or
    # perfbench/ calls (a test's cross-check) does not count
    sites = {}
    for top in ("src", "perfbench"):
        visitor = _CallSites()
        for path in sorted((ROOT / top).rglob("*.py")):
            visitor.visit(ast.parse(path.read_text()))
        sites[top] = visitor.sites
    called = {name for top in sites for name, _, _ in sites[top]}
    live = {name for name, _, _ in sites["perfbench"]} | {
        name
        for name, _, scope in sites["src"]
        if scope is None or not scope.startswith("_") or scope.startswith("__") or scope in called
    }
    assert sorted(set(_public_functions()) - live) == sorted(TEST_ONLY)
