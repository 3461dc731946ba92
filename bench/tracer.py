"""In-memory span tracer that wraps spikedrive's public entry points.

A span is ``[name, cat, start, end, parent, rid, tag]``: ``name`` is the
layer id (the instance ``.name``, the same key ``energy.charged_ops`` and
``instrument.Probe`` use) or the function name, ``cat`` the layer/op kind the
per-layer metrics aggregate over, ``parent`` the index of the enclosing span
(or -1), ``rid`` the request id, and ``tag`` is ``"req"`` inside a timed
request and ``"chk"`` inside an output check. Spans stay in this process
until the run writes them out.

Nothing in ``src/`` is changed: module functions and class methods are
replaced by wrappers for the traced phase and restored afterwards, and layer
instances get a wrapping instance attribute that shadows the class method.
"""

from __future__ import annotations

import time

# autodiff op -> the family its forward and backward time is reported under
OP_FAMILY = {
    "conv2d": "conv2d",
    "batch_norm": "bn", "normalize_affine": "bn",
    "matmul": "matmul",
    "add": "elementwise", "sub": "elementwise", "mul": "elementwise",
    "scale": "elementwise", "shift": "elementwise", "spike": "elementwise",
    "reshape": "other", "transpose": "other", "mean_axes": "other",
    "sum_axes": "other", "cross_entropy": "other",
}

# methods wrapped on each discovered layer instance, by class name
LAYER_METHODS = {
    "SN": ("step",),
    "TransformerBlock": ("forward", "_attend"),
}

_MISSING = object()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.rid = -1
        self.tag = "req"
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, cat: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, cat, time.perf_counter(), 0.0, parent, self.rid, self.tag])
        self._stack.append(i)
        return i

    def close(self, i: int):
        self.spans[i][3] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, n: float):
        k = (self.rid, key)
        self.counts[k] = self.counts.get(k, 0) + n

    def wrap(self, fn, name: str, cat: str):
        tracer = self

        def traced(*args, **kwargs):
            i = tracer.open(name, cat)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(i)

        return traced

    # -- installing wrappers ---------------------------------------------------

    def _patch(self, owner, attr: str, value):
        # modules, classes and instances all keep their own attributes in
        # __dict__; an instance without one falls back to the class method
        self._restore.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, cat: str):
        """Wrap a module function or a class method in a span named ``attr``."""
        self._patch(owner, attr, self.wrap(getattr(owner, attr), attr, cat))

    def patch_autodiff(self, ad):
        """Wrap every tape op and ``backward``. Each op's span is its forward
        time; the vjp of each record the op pushed is wrapped too, so its
        backward time is a span under ``backward``."""
        for op, family in OP_FAMILY.items():
            self._patch(ad, op, self._traced_op(getattr(ad, op), op, family))

        tracer = self
        orig_backward = ad.backward

        def backward(tape, *args, **kwargs):
            tracer.count("autodiff.tape_records", len(tape))
            i = tracer.open("backward", "autodiff.backward")
            try:
                return orig_backward(tape, *args, **kwargs)
            finally:
                tracer.close(i)

        self._patch(ad, "backward", backward)

    def _traced_op(self, fn, op: str, family: str):
        tracer = self
        fwd, bwd = f"autodiff.{family}.fwd", f"autodiff.{family}.bwd"
        grouped = op == "conv2d"

        def traced(tape, *args, **kwargs):
            n0 = len(tape.records) if tape is not None else 0
            if grouped:  # conv2d(tape, x, w, b, stride, padding, groups=1)
                groups = kwargs.get("groups", args[5] if len(args) > 5 else 1)
                tracer.count("autodiff.conv2d.group_matmuls", groups)
            i = tracer.open(op, fwd)
            try:
                out = fn(tape, *args, **kwargs)
            finally:
                tracer.close(i)
            if tape is not None:
                recs = tape.records
                for j in range(n0, len(recs)):
                    o, ins, vjp = recs[j]
                    recs[j] = (o, ins, tracer.wrap(vjp, op, bwd))
            return out

        return traced

    def patch_layers(self, root):
        """Wrap forward/step of every layer instance reachable from ``root``.
        Spans carry the instance ``.name``; ``cat`` is ``module.Class`` with
        the method appended when it is not ``forward``."""
        for layer in discover_layers(root).values():
            cls = type(layer).__name__
            short = type(layer).__module__.rsplit(".", 1)[-1]
            for meth in LAYER_METHODS.get(cls, ("forward",)):
                cat = f"{short}.{cls}" + ("" if meth == "forward" else "." + meth.strip("_"))
                self._patch(layer, meth, self.wrap(getattr(layer, meth), layer.name, cat))
        cls = type(root).__name__
        self._patch(root, "forward", self.wrap(root.forward, "model", f"model.{cls}"))

    def unpatch(self):
        while self._restore:
            owner, attr, old = self._restore.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def discover_layers(root) -> dict[str, object]:
    """Every named layer object under ``root`` (blocks and model classes),
    keyed by its ``.name``."""
    found: dict[str, object] = {}
    todo = [root]
    while todo:
        obj = todo.pop()
        for value in vars(obj).values():
            for item in value if isinstance(value, list) else [value]:
                if type(item).__module__ in ("spikedrive.blocks", "spikedrive.model") \
                        and isinstance(getattr(item, "name", None), str) \
                        and item.name not in found:
                    found[item.name] = item
                    todo.append(item)
    return found


# -- reading spans back --------------------------------------------------------

def durations(spans):
    """Total and self time per span; self excludes the time of direct children."""
    total = [s[3] - s[2] for s in spans]
    self_t = list(total)
    for s, d in zip(spans, total):
        if s[4] >= 0:
            self_t[s[4]] -= d
    return total, self_t
