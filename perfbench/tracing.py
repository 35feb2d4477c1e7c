"""Per-layer tracing of solves from outside the library.

The tracer replaces each layer entry point, as its caller looks it up, with a
wrapper that records a span: call count, inclusive time and self time
(inclusive minus the spans it encloses). It touches no array, so a traced
solve computes exactly what an untraced one does. Hooks are installed for
the duration of a `with tracer.installed():` block and removed after it; a
hook whose target no longer exists marks its layer as unmeasured.
"""

import contextlib
import dataclasses
import importlib
import time
from collections import Counter

import newton_condg as nc

# (module, attribute, span name); the span name's prefix is its layer.
# The solver's own references are the ones it calls; the library modules'
# globals are what the layer functions call internally (solve_inexact falls
# back to solve_direct, solve_direct calls lu_factor, next_jacobian calls
# fd_jacobian and schubert_update).
FUNCTION_HOOKS = (
    ("newton_condg.solver", "next_jacobian", "jacobian.next_jacobian"),
    ("newton_condg.jacobian", "fd_jacobian", "jacobian.fd_jacobian"),
    ("newton_condg.jacobian", "schubert_update", "jacobian.schubert_update"),
    ("newton_condg.solver", "solve_direct", "linsolve.solve_direct"),
    ("newton_condg.solver", "solve_inexact", "linsolve.solve_inexact"),
    ("newton_condg.linsolve", "solve_direct", "linsolve.solve_direct"),
    ("newton_condg.linsolve", "lu_factor", "linsolve.lu_factor"),
    ("newton_condg.linsolve", "gmres", "linsolve.gmres"),
    ("newton_condg.solver", "condg", "condg.condg"),
)
# FeasibleSet methods, hooked on every concrete set class that defines them
METHOD_HOOKS = (
    ("lmo", "feasible_set.lmo"),
    ("contains", "feasible_set.contains"),
)
# Problem callbacks, hooked on a copy of each problem
CALLBACK_HOOKS = (
    ("fun", "problem.fun"),
    ("jac", "problem.jac"),
)
ROOT_SPAN = "solver.solve"

LAYERS = ("solver", "problem", "jacobian", "linsolve", "condg", "feasible_set")


def layer_of(span):
    return span.split(".", 1)[0]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@dataclasses.dataclass
class SolveTrace:
    """Spans and derived counts of one traced solve.

    spans maps a span name to [calls, inclusive seconds, self seconds].
    counts holds what the wrappers read off return values and child spans:
    Jacobian builds by kind, model bytes, LU flops, inexact solves that met
    their contract, and CondG inner iterations, cap hits and certificates.
    """

    spans: dict = dataclasses.field(default_factory=dict)
    counts: Counter = dataclasses.field(default_factory=Counter)
    condg_max_inner: int = 0

    def calls(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[0]

    def inclusive_s(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[1]

    def self_s(self, span):
        return self.spans.get(span, (0, 0.0, 0.0))[2]

    def layer_self_s(self, layer):
        return sum(rec[2] for name, rec in self.spans.items() if layer_of(name) == layer)

    def add(self, other):
        for name, rec in other.spans.items():
            mine = self.spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                mine[i] += rec[i]
        self.counts.update(other.counts)
        self.condg_max_inner = max(self.condg_max_inner, other.condg_max_inner)


def _after_next_jacobian(trace, args, state, children):
    if "jacobian.fd_jacobian" in children:
        trace.counts["builds_fd"] += 1
    elif "jacobian.schubert_update" in children:
        trace.counts["builds_secant"] += 1
    elif "problem.jac" in children:
        trace.counts["builds_exact"] += 1
    trace.counts["model_bytes"] += state.M.nbytes


def _after_lu_factor(trace, args, _out, _children):
    n = args[0].shape[0]
    trace.counts["lu_flops"] += 2.0 * n ** 3 / 3.0


def _after_solve_inexact(trace, _args, _out, children):
    if "linsolve.solve_direct" not in children:
        trace.counts["inexact_contract_met"] += 1


def _after_condg(trace, _args, result, _children):
    trace.counts["condg_inner_iters"] += result.inner_iters
    trace.condg_max_inner = max(trace.condg_max_inner, result.inner_iters)
    if result.terminated_by == "gap":
        trace.counts["condg_certified"] += 1
    else:
        trace.counts["condg_cap_hits"] += 1


AFTER = {
    "jacobian.next_jacobian": _after_next_jacobian,
    "linsolve.lu_factor": _after_lu_factor,
    "linsolve.solve_inexact": _after_solve_inexact,
    "condg.condg": _after_condg,
}


class Tracer:
    """Records the spans of the current solve into `self.trace`.

    Only calls made inside the root span are recorded, so output checks run
    between solves leave the trace alone. Assign a fresh SolveTrace to
    `self.trace` before each solve to keep solves apart.
    """

    def __init__(self, function_hooks=FUNCTION_HOOKS):
        self.function_hooks = function_hooks
        self.trace = SolveTrace()
        self.unmeasured = set()  # layers with a hook that could not be installed
        self._stack = []

    def wrap(self, span, fn):
        after = AFTER.get(span)

        def traced(*args, **kwargs):
            if not self._stack and span != ROOT_SPAN:
                return fn(*args, **kwargs)  # outside a solve: not recorded
            frame = [0.0, set()]  # time and names of the enclosed spans
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                rec = self.trace.spans.setdefault(span, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if self._stack:
                    self._stack[-1][0] += dt
                    self._stack[-1][1].add(span)
            if after is not None:
                try:
                    after(self.trace, args, out, frame[1])
                except (AttributeError, IndexError, TypeError):
                    # the return value no longer has the shape read here
                    self.unmeasured.add(layer_of(span))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install every hook whose target exists; restore all on exit."""
        undo = []
        try:
            for module_name, attr, span in self.function_hooks:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                if not callable(getattr(module, attr, None)):
                    self.unmeasured.add(layer_of(span))
                    continue
                undo.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(span, getattr(module, attr)))
            for attr, span in METHOD_HOOKS:
                classes = [c for c in _subclasses(nc.FeasibleSet) if attr in vars(c)]
                if not classes:
                    self.unmeasured.add(layer_of(span))
                for cls in classes:
                    undo.append((cls, attr, vars(cls)[attr]))
                    setattr(cls, attr, self.wrap(span, vars(cls)[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def traced_problem(self, problem):
        """A copy of `problem` whose callbacks record problem.* spans."""
        changes = {}
        for attr, span in CALLBACK_HOOKS:
            fn = getattr(problem, attr, None)
            if fn is not None:
                changes[attr] = self.wrap(span, fn)
        try:
            return dataclasses.replace(problem, **changes)
        except (TypeError, ValueError):
            self.unmeasured.add("problem")
            return problem

    def traced_solve(self):
        """newton_condg.solve under the root span of the solver layer."""
        return self.wrap(ROOT_SPAN, nc.solve)
