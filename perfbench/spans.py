"""In-memory span tracing around calls into the ``recal`` layers.

The tracer wraps public functions at the module attributes where their
callers look them up, so no source file of the program is edited. Each call
records one span: name, start, end, parent span and unit id, plus one
integer work count (elements, callback evaluations, iterations or bytes,
depending on the function). Counts are computed from argument sizes and
return values, not read from hardware counters.

Spans live in flat ``array`` columns to keep memory small (~40 bytes a
span) and are written to an ``.npz`` file when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from array import array

NO_UNIT = -1
UNIT_SPAN = "unit"


class Tracer:
    """Span recorder; one instance per process, single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unit = array("i")
        self.count = array("q")
        self.current_unit = NO_UNIT
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.unit.append(self.current_unit)
        self.count.append(0)
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None, name_of=None, callback_arg=None):
        """Replace ``module.attr`` by a recording wrapper.

        ``count(args, result)`` gives the span's work count. ``name_of(args)``
        names the span per call instead of ``name``. With ``callback_arg=i``
        the positional argument i is a callback, and the span counts its
        evaluations instead.
        """
        original = getattr(module, attr)
        fixed_id = self.name_id(name) if name_of is None else None
        tracer = self

        def wrapper(*args, **kwargs):
            name_id = fixed_id if name_of is None else tracer.name_id(name_of(args))
            idx = tracer.open(name_id)
            try:
                if callback_arg is not None:
                    args = _counting(args, callback_arg, tracer.count, idx)
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                tracer.count[idx] = int(count(args, result))
            return result

        wrapper.__wrapped__ = original
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def extend(self, data: dict, unit_id: int, host: int) -> None:
        """Append spans another process recorded (as :func:`load` returns them)
        under ``unit_id``; their root spans become children of span ``host``."""
        offset = len(self.start)
        remap = [self.name_id(n) for n in data["names"]]
        for name, start, end, parent, count in zip(
            data["name"].tolist(), data["start"].tolist(), data["end"].tolist(),
            data["parent"].tolist(), data["count"].tolist(),
        ):
            self.name.append(remap[name])
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent + offset if parent >= 0 else host)
            self.unit.append(unit_id)
            self.count.append(count)

    def dump(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            unit=np.frombuffer(self.unit, dtype=np.int32),
            count=np.frombuffer(self.count, dtype=np.int64),
        )


def _counting(args: tuple, i: int, counts: array, idx: int) -> tuple:
    inner = args[i]

    def counted(*a, **k):
        counts[idx] += 1
        return inner(*a, **k)

    return args[:i] + (counted,) + args[i + 1:]


def load(path) -> dict:
    import numpy as np

    with np.load(path) as data:
        out = {key: data[key] for key in data.files}
    out["names"] = json.loads(str(out["names"]))
    return out


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result is never negative.
    """
    n = len(start)
    children: dict[int, list[int]] = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            a, b = max(start[k], lo), min(end[k], hi)
            if b <= a:
                continue
            if run_hi is None or a > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = a, b
            else:
                run_hi = max(run_hi, b)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


def per_unit_totals(tracer: Tracer, units: list[int]) -> dict[str, dict[str, float]]:
    """Per-name totals over the spans of the given units, divided by their number.

    Returns name -> {"calls", "s", "self_s", "count"}, each a mean per unit.
    """
    wanted = set(units)
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    totals: dict[str, dict[str, float]] = {}
    for i in range(len(tracer.start)):
        if tracer.unit[i] not in wanted:
            continue
        entry = totals.setdefault(
            tracer.names[tracer.name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0}
        )
        entry["calls"] += 1
        entry["s"] += tracer.end[i] - tracer.start[i]
        entry["self_s"] += selfs[i]
        entry["count"] += tracer.count[i]
    k = max(len(wanted), 1)
    return {
        name: {key: value / k for key, value in entry.items()}
        for name, entry in totals.items()
    }
