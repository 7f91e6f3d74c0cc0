"""Span tracing for the benchmark's traced run.

The tracer replaces, from outside the package, the module and class
attributes through which each dualgn layer is called, records one span per
call in memory (name, start, end, parent), and puts every original object
back afterwards.  Nothing is replaced unless a traced run asks for it, so an
untraced run executes the package's own objects.

Span names are ``<layer>.<attribute>``; the layer is the dualgn module that
defines the code (``models``, ``linop``, ``losses``, ``cgsolver``,
``directions``, ``trainer``).  Steps are not spans of the package: the
benchmark closes one per ``on_record`` callback and passes their intervals to
:func:`attribute`, which makes them the roots of the span tree.
"""

import functools
import time
from collections import Counter

FORWARD = ("models.forward", "models.forward_trace")
LINESEARCH = "trainer._armijo_backtrack"
DIRECTIONS = ("directions.dual_gn_direction", "directions.primal_gn_direction")


def _vector_ops(result):
    return result.report.vector_op_scalar_count


def _cg_iterations(result):
    return result[1].iterations


def _accepted(result):
    return int(result[1])


def wrap_points():
    """``(owner, attribute, span name, extra)`` for every traced call site.

    ``extra`` maps the call's return value to a number stored on the span.
    """
    from dualgn import directions, models, trainer

    points = [
        (trainer, "dual_gn_direction", "directions.dual_gn_direction", _vector_ops),
        (trainer, "primal_gn_direction", "directions.primal_gn_direction", _vector_ops),
        (trainer, "make_jacobian_operator", "linop.make_jacobian_operator", None),
        (trainer, "loss_value", "losses.loss_value", None),
        (trainer, "_armijo_backtrack", LINESEARCH, _accepted),
        (trainer, "_full_metrics", "trainer._full_metrics", None),
        (trainer, "outer_update", "trainer.outer_update", None),
        (directions, "cg_solve", "cgsolver.cg_solve", _cg_iterations),
        (directions, "loss_grad", "losses.loss_grad", None),
        (directions, "loss_hvp", "losses.loss_hvp", None),
        (directions, "softmax", "losses.softmax", None),
        (directions, "constraint_project", "losses.constraint_project", None),
    ]
    for cls in (models.MLPModel, models.LinearModel):
        for attr in ("forward", "forward_trace", "jvp", "vjp"):
            if attr in vars(cls):
                points.append((cls, attr, f"models.{attr}", None))
    return points


def current_objects():
    """The object each wrap point resolves to right now, keyed by location."""
    return {
        (owner.__name__, attr): vars(owner)[attr]
        for owner, attr, _, _ in wrap_points()
    }


class Tracer:
    """Records a span for each call of the wrapped attributes.

    Spans are lists ``[name, start, end, parent, extra]`` in start order;
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, owner, attr, name, extra=None):
        original = vars(owner)[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(out)
            return out

        setattr(owner, attr, traced)
        self._saved.append((owner, attr, original))

    def install(self):
        for point in wrap_points():
            self.wrap(*point)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def drain(self):
        """Return the spans recorded so far and start an empty list.

        Call only between top-level calls, when no span is open.
        """
        if self._stack:
            raise RuntimeError("drain() called inside an open span")
        out = list(self.spans)
        self.spans.clear()
        return out


def covered(start, end, intervals):
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def attribute(spans, steps):
    """Assign spans to steps and compute self times.

    ``steps`` are ``(start, end)`` intervals in time order.  A top-level span
    belongs to the step whose interval holds its start (or to none, such as
    the initial metrics before the first step); a nested span belongs to its
    parent's step.  Returns ``(step_of, self_s, root_self_s)``: the step index
    of each span (or None), each span's duration minus the time its direct
    children cover, and each step's duration minus the time its top-level
    spans cover.
    """
    children = [[] for _ in spans]
    top = [[] for _ in steps]
    step_of = [None] * len(spans)
    j = 0
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
            step_of[i] = step_of[parent]
            continue
        while j < len(steps) and steps[j][1] < start:
            j += 1
        if j < len(steps) and steps[j][0] <= start:
            step_of[i] = j
            top[j].append((start, end))
    self_s = [
        (end - start) - covered(start, end, children[i])
        for i, (_, start, end, _, _) in enumerate(spans)
    ]
    root_self_s = [(end - start) - covered(start, end, top[j]) for j, (start, end) in enumerate(steps)]
    return step_of, self_s, root_self_s


def layer_totals(spans, steps):
    """Sums over the spans inside ``steps``, keyed for :func:`layer_metrics`.

    Keys: ``<layer>.self_s`` (self time per layer; steps' own self time goes
    to ``trainer``), ``<span>.calls``, ``<span>.s`` (inclusive time),
    ``<span>.extra``, ``forward_passes``/``forward_s`` (forward or
    forward_trace calls not nested in a forward call), ``linesearch_evals``
    (forward passes made by the line search), ``steps`` and ``step_s``.
    """
    step_of, self_s, root_self_s = attribute(spans, steps)
    totals = Counter()
    for i, (name, start, end, parent, extra) in enumerate(spans):
        if step_of[i] is None:
            continue
        duration = end - start
        totals[name.split(".", 1)[0] + ".self_s"] += self_s[i]
        totals[name + ".calls"] += 1
        totals[name + ".s"] += duration
        if extra is not None:
            totals[name + ".extra"] += extra
        parent_name = spans[parent][0] if parent >= 0 else None
        if name in FORWARD and parent_name != "models.forward":
            totals["forward_passes"] += 1
            totals["forward_s"] += duration
            if parent_name == LINESEARCH:
                totals["linesearch_evals"] += 1
    totals["trainer.self_s"] += sum(root_self_s)
    totals["steps"] += len(steps)
    totals["step_s"] += sum(end - start for start, end in steps)
    return totals


def layer_metrics(totals):
    """Per-layer metrics (name -> value) from summed :func:`layer_totals`."""
    n = totals["steps"]
    ms = 1000.0

    def per_step_ms(*keys):
        return sum(totals[k] for k in keys) * ms / n

    def per_call_ms(name):
        calls = totals[name + ".calls"]
        return totals[name + ".s"] * ms / calls if calls else 0.0

    loss_calls = sum(v for k, v in totals.items() if k.startswith("losses.") and k.endswith(".calls"))
    searches = totals[LINESEARCH + ".calls"]
    trials = totals["linesearch_evals"] - searches  # each search first evaluates h(w)
    return {
        "models.forward_calls_per_step": totals["forward_passes"] / n,
        "models.forward_ms_per_step": per_step_ms("forward_s"),
        "models.jvp_ms_per_call": per_call_ms("models.jvp"),
        "models.vjp_ms_per_call": per_call_ms("models.vjp"),
        "models.self_ms_per_step": per_step_ms("models.self_s"),
        "linop.make_operator_ms_per_step": per_step_ms("linop.make_jacobian_operator.s"),
        "losses.calls_per_step": loss_calls / n,
        "losses.self_ms_per_step": per_step_ms("losses.self_s"),
        "cgsolver.self_ms_per_step": per_step_ms("cgsolver.self_s"),
        "cgsolver.iterations_per_step": totals["cgsolver.cg_solve.extra"] / n,
        "directions.total_ms_per_step": per_step_ms(*(d + ".s" for d in DIRECTIONS)),
        "directions.self_ms_per_step": per_step_ms("directions.self_s"),
        "directions.vector_op_scalars_per_step": sum(totals[d + ".extra"] for d in DIRECTIONS) / n,
        "trainer.self_ms_per_step": per_step_ms("trainer.self_s"),
        "trainer.linesearch_ms_per_step": per_step_ms(LINESEARCH + ".s"),
        "trainer.linesearch_trials_per_step": trials / n,
        "trainer.linesearch_accept_ratio": totals[LINESEARCH + ".extra"] / trials if trials else 0.0,
        "trainer.outer_update_ms_per_step": per_step_ms("trainer.outer_update.s"),
        "trainer.full_metrics_ms_per_epoch": per_call_ms("trainer._full_metrics"),
    }


def span_lines(spans, steps, id_base, step_base):
    """Spans and step roots as JSON-ready dicts, ids offset by the bases.

    Step roots are named ``trainer.step``; a top-level span's parent is its
    step root, and a span outside every step has no step and no parent.
    """
    step_of, _, _ = attribute(spans, steps)
    rows = [
        {"id": id_base + j, "step": step_base + j, "name": "trainer.step",
         "start": start, "end": end, "parent": None}
        for j, (start, end) in enumerate(steps)
    ]
    span_base = id_base + len(steps)
    for i, (name, start, end, parent, _) in enumerate(spans):
        step = step_of[i]
        if parent >= 0:
            parent_id = span_base + parent
        else:
            parent_id = None if step is None else id_base + step
        rows.append({
            "id": span_base + i,
            "step": None if step is None else step_base + step,
            "name": name, "start": start, "end": end, "parent": parent_id,
        })
    return rows
