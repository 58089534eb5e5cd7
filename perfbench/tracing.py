"""Per-layer tracing of slq, installed at run time from the benchmark.

The layers are the slq modules.  `Tracer.install` wraps the public
functions each module exposes (plus the few private entry points that
carry a counter, such as the shooting determinant) by rebinding them in
every loaded slq module; nothing under src/ is edited.  Each wrapped call
becomes a span; a span's self time is its duration minus the time its
child spans cover, and a layer's self time is the sum over its spans.

Very hot calls are handled cheaply: trajectory lookups
(`ScaledSolution.log_pair`) keep their timing but are not stored as
individual spans, and coefficient evaluations (`Expr.__call__`) are only
counted, since timing them would distort the self times around them.
Stored spans stay in memory and are written out once, at the end.

Counters are kept per phase ("setup" and "round") so that a run reports
them per set-up plus per round, which repeats exactly from run to run.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict

# (metric name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("solutions.traj_evals", "count"),
    ("solutions.traj_eval.s", "s"),
    ("solutions.construct.s", "s"),
    ("solutions.bases", "count"),
    ("solutions.segments", "count"),
    ("solutions.s", "s"),
    ("odecore.solves", "count"),
    ("odecore.steps", "count"),
    ("odecore.rhs_evals", "count"),
    ("odecore.s", "s"),
    ("expressions.evals", "count"),
    ("quadrature.improper.calls", "count"),
    ("quadrature.panels", "count"),
    ("quadrature.integrand_evals", "count"),
    ("quadrature.uncertified", "count"),
    ("quadrature.s", "s"),
    ("problem.endpoint_regular.calls", "count"),
    ("problem.endpoint_regular.repeats", "count"),
    ("problem.endpoint_regular.s", "s"),
    ("problem.s", "s"),
    ("classify.endpoint.calls", "count"),
    ("classify.nonosc.calls", "count"),
    ("classify.s", "s"),
    ("bvalues.gbv.calls", "count"),
    ("bvalues.gbv.repeats", "count"),
    ("bvalues.gbv.uncertified", "count"),
    ("bvalues.s", "s"),
    ("forms.q_base.calls", "count"),
    ("forms.green.calls", "count"),
    ("forms.s", "s"),
    ("extensions.det_calls", "count"),
    ("extensions.roots", "count"),
    ("extensions.roots_per_det_call", "ratio"),
    ("extensions.s", "s"),
    ("triplets.calls", "count"),
    ("triplets.s", "s"),
    ("cli.classify.s", "s"),
    ("cli.basis.s", "s"),
    ("cli.gbv.s", "s"),
    ("cli.form.s", "s"),
    ("cli.green-check.s", "s"),
    ("cli.triplet.s", "s"),
    ("cli.eig.s", "s"),
    ("cli.report_bytes", "bytes"),
    ("cli.s", "s"),
    ("trace.run_s", "s"),
    ("trace.spans", "count"),
]

CLI_COMMANDS = ("classify", "basis", "gbv", "form", "green-check", "triplet",
                "eig")


class Tracer:
    """Span and counter recorder; one per traced run."""

    def __init__(self):
        self.acc = {"setup": defaultdict(float), "round": defaultdict(float)}
        self.cur = self.acc["setup"]
        self.spans = []           # (id, parent id, phase, name, t0, t1)
        self._stack = [0.0]       # child time of each open span
        self._open = [None]       # ids of open spans
        self._ids = itertools.count(1)
        self._seen = set()        # keys seen, for repeat counts
        self._keep = []           # objects whose id() is used as a key
        self._restore = []        # (owner, attribute, original)
        self._phase = "setup"

    # -- phases -----------------------------------------------------------

    def set_phase(self, phase):
        """Start a set-up or a round; repeats count within one of them."""
        self._phase = phase
        self.cur = self.acc[phase]
        self._seen.clear()
        self._keep.clear()

    # -- wrapping ---------------------------------------------------------

    def span(self, fn, layer, name, count=None, total=None, hot=False,
             on_call=None, on_result=None):
        """Wrap fn: self time to `<layer>.s`, calls to `count`, inclusive
        time to `total`; hot spans are timed but not stored."""
        tracer = self
        perf = time.perf_counter
        self_key = f"{layer}.s"

        def wrapper(*args, **kwargs):
            acc = tracer.cur
            if on_call is not None:
                on_call(acc, args, kwargs)
            stack = tracer._stack
            stack.append(0.0)
            if not hot:
                sid = next(tracer._ids)
                parent = tracer._open[-1]
                tracer._open.append(sid)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                child = stack.pop()
                d = t1 - t0
                stack[-1] += d
                acc[self_key] += d - child
                if count is not None:
                    acc[count] += 1
                if total is not None:
                    acc[total] += d
                if not hot:
                    tracer._open.pop()
                    tracer.spans.append(
                        (sid, parent, tracer._phase, name, t0, t1))
            if on_result is not None:
                on_result(acc, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, fn, count):
        """Wrap fn with a call counter only (no span, no timing)."""
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.cur[count] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def repeat_check(self, counter, key_fn):
        """on_call hook counting calls whose key was seen before."""
        def hook(acc, args, kwargs):
            key = key_fn(args, kwargs)
            if key in self._seen:
                acc[counter] += 1
            self._seen.add(key)
        return hook

    def identity(self, *objs):
        """Key built from object identities, kept alive so ids stay unique."""
        self._keep.extend(objs)
        return tuple(id(o) for o in objs)

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, modules, original, wrapper):
        """Replace `original` by `wrapper` wherever a module binds it."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, val = self._restore.pop()
            setattr(owner, attr, val)

    def install(self):
        """Wrap the slq modules' entry points (see the module docstring)."""
        import scipy.integrate

        from slq import (bvalues, classify, cli, expressions, extensions,
                         forms, odecore, problem, quadrature, solutions,
                         triplets)

        mods = [bvalues, classify, cli, expressions, extensions, forms,
                odecore, problem, quadrature, solutions, triplets]

        def wrap_fn(mod, name, layer, **kw):
            orig = getattr(mod, name)
            self.rebind(mods, orig,
                        self.span(orig, layer, f"{layer}.{name}", **kw))

        def wrap_method(cls, name, layer, **kw):
            orig = getattr(cls, name)
            self._set(cls, name, self.span(
                orig, layer, f"{layer}.{cls.__name__}.{name}", **kw))

        # problem
        def spec_key(args, kwargs):
            spec, which = args[0], args[1]
            iv = spec.interval
            return ("endpoint_regular", iv.a, iv.b, spec.p.text, spec.q.text,
                    spec.r.text, spec.lambda0, which)

        wrap_fn(problem, "endpoint_regular", "problem",
                count="problem.endpoint_regular.calls",
                total="problem.endpoint_regular.s",
                on_call=self.repeat_check("problem.endpoint_regular.repeats",
                                          spec_key))
        for name in ("validate", "load_problem", "problem_from_dict",
                     "catalog"):
            wrap_fn(problem, name, "problem")

        # classify
        wrap_fn(classify, "classify_endpoint", "classify",
                count="classify.endpoint.calls")
        wrap_fn(classify, "certify_nonoscillatory", "classify",
                count="classify.nonosc.calls")
        for name in ("classify_both", "count_zeros"):
            wrap_fn(classify, name, "classify")

        # solutions
        wrap_fn(solutions, "construct_basis", "solutions",
                count="solutions.bases", total="solutions.construct.s")
        wrap_fn(solutions, "rescaled_march", "solutions")
        wrap_method(solutions.ScaledSolution, "log_pair", "solutions",
                    count="solutions.traj_evals",
                    total="solutions.traj_eval.s", hot=True)
        self._set(solutions.ScaledSolution, "add_segment", self.counted(
            solutions.ScaledSolution.add_segment, "solutions.segments"))

        # odecore: every solve_ivp seen by odecore, solutions and classify
        # (classify marches through solutions and odecore).
        def ode_result(acc, sol):
            acc["odecore.solves"] += 1
            acc["odecore.steps"] += len(sol.t) - 1
            acc["odecore.rhs_evals"] += sol.nfev

        self.rebind(mods, scipy.integrate.solve_ivp, self.span(
            scipy.integrate.solve_ivp, "odecore", "odecore.solve_ivp",
            on_result=ode_result))
        for name in ("integrate_tau", "wronskian", "tau_apply"):
            wrap_fn(odecore, name, "odecore")

        # expressions: count only
        self._set(expressions.Expr, "__call__", self.counted(
            expressions.Expr.__call__, "expressions.evals"))

        # quadrature
        wrap_fn(quadrature, "improper_integral", "quadrature",
                count="quadrature.improper.calls")
        wrap_fn(quadrature, "panel", "quadrature", count="quadrature.panels")
        wrap_fn(quadrature, "interval_integral", "quadrature")
        real_quad = quadrature.quad
        tracer = self

        def counting_quad(f, a, b, **kw):
            out = real_quad(f, a, b, full_output=1, **kw)
            tracer.cur["quadrature.integrand_evals"] += out[2]["neval"]
            return out[0], out[1]

        self._set(quadrature, "quad", counting_quad)

        def uncertified(counter):
            def hook(acc, out):
                if not out[2]:
                    acc[counter] += 1
            return hook

        # accelerated_limit is bound in both quadrature and bvalues; each
        # binding gets its own counter.
        orig_limit = quadrature.accelerated_limit
        self._set(quadrature, "accelerated_limit", self.span(
            orig_limit, "quadrature", "quadrature.accelerated_limit",
            on_result=uncertified("quadrature.uncertified")))
        self._set(bvalues, "accelerated_limit", self.span(
            orig_limit, "quadrature", "quadrature.accelerated_limit",
            on_result=uncertified("bvalues.gbv.uncertified")))

        # bvalues
        wrap_fn(bvalues, "gbv", "bvalues", count="bvalues.gbv.calls",
                on_call=self.repeat_check(
                    "bvalues.gbv.repeats",
                    lambda args, kw: self.identity(args[1], args[2])))
        wrap_fn(bvalues, "patched_pair", "bvalues")

        # forms
        wrap_fn(forms, "q_base", "forms", count="forms.q_base.calls")
        wrap_fn(forms, "q_decorated", "forms")
        wrap_fn(forms, "green_identity_residual", "forms",
                count="forms.green.calls")

        # extensions
        def roots(acc, out):
            acc["extensions.roots"] += len(out)

        wrap_fn(extensions, "eigenvalues_shoot", "extensions",
                on_result=roots)
        for name in ("_shoot_det", "_coupled_det"):
            wrap_fn(extensions, name, "extensions",
                    count="extensions.det_calls")
        for name in ("friedrichs_spec", "check_variant", "boundary_residual",
                     "extension_from_dict"):
            wrap_fn(extensions, name, "extensions")

        # triplets
        for name in ("validate_pair", "decompose", "relation_membership",
                     "pair_from_extension", "boundary_maps",
                     "triplet_green_residual", "form_from_relation",
                     "boundary_pair_check"):
            wrap_fn(triplets, name, "triplets", count="triplets.calls")

        # cli: one span per command, inclusive time per command
        for command in CLI_COMMANDS:
            name = "cmd_" + command.replace("-", "_")
            wrap_fn(cli, name, "cli", total=f"cli.{command}.s")

    # -- results ----------------------------------------------------------

    def metrics(self, n_setups, n_rounds, round_s):
        """Per-layer metrics: per set-up plus per round of the timed phase."""
        def value(key):
            v = self.acc["setup"].get(key, 0.0) / max(n_setups, 1)
            return v + self.acc["round"].get(key, 0.0) / max(n_rounds, 1)

        out = {}
        for name, unit in PER_LAYER:
            if name == "extensions.roots_per_det_call":
                det = value("extensions.det_calls")
                v = value("extensions.roots") / det if det else 0.0
            elif name == "trace.run_s":
                v = round_s
            elif name == "trace.spans":
                v = len(self.spans)
            else:
                v = value(name)
            out[name] = {"value": v, "unit": unit}
        return out

    def write(self, path, meta):
        """Write the stored spans and raw counters as JSON."""
        doc = {
            "meta": meta,
            "counters": {ph: dict(acc) for ph, acc in self.acc.items()},
            "span_fields": ["id", "parent", "phase", "name", "t0", "t1"],
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
