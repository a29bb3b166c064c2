"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the program from outside, by
replacing module and class attributes, so nothing under ``src/`` needs
to know it exists.  Each wrapped call becomes a :class:`Span` (name,
layer, start, end, parent span, request id, pid) kept in memory until
the run ends.

Targets are dotted names.  A target that no longer resolves is listed in
:attr:`Recorder.missing` and its metric is simply absent: the benchmark
must outlive refactors that rename or delete the functions it watches.

A module-level function is replaced in its defining module *and* in
every module that imported it by name.  Replacing it only where it is
called would leave the defining module holding the original, and a
process pool pickles functions by qualified name, so workers would run
the unwrapped function.  Pool workers are forked after installation and
inherit the wrappers; their spans are appended to one file per pid in
the spool directory as each worker-side call tree completes, and
:meth:`Recorder.collect` merges those files into the parent's spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Span ids are ``pid * _ID_STRIDE + counter``, unique across processes.
_ID_STRIDE = 10 ** 9


class Span:
    """One timed call.  ``attrs`` holds numbers a target's hook measured
    from the call's arguments and result."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "rid",
                 "pid", "attrs")

    def __init__(self, id, name, layer, start, end=0.0, parent=None,
                 rid=None, pid=0, attrs=None):
        self.id = id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.pid = pid
        self.attrs = attrs

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_dict(cls, data: Dict) -> "Span":
        return cls(**data)


#: ``hook(args, kwargs, result) -> {attr: number}``, run after the call.
Hook = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Target:
    """A function to wrap: dotted *path*, span *name* and *layer*."""

    path: str
    name: str
    layer: str
    hook: Optional[Hook] = None


def resolve(path: str) -> Optional[Tuple[object, str, object]]:
    """``(owner, attribute, function)`` for a dotted *path*, or ``None``.

    The owner is the module or class that holds the attribute.  Only
    plain functions resolve; anything else counts as missing.
    """
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            function = inspect.getattr_static(owner, parts[-1])
        except AttributeError:
            return None
        if not inspect.isfunction(function):
            return None
        return owner, parts[-1], function
    return None


def _bindings() -> Dict[int, List[Tuple[object, str]]]:
    """Every ``(module, name)`` bound to a function, keyed by the
    function's id."""
    index: Dict[int, List[Tuple[object, str]]] = {}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if inspect.isfunction(value):
                index.setdefault(id(value), []).append((module, name))
    return index


class Recorder:
    """In-memory span store plus the attribute patches that feed it.

    Single-threaded by design: the benchmark drives the service inline,
    so one span stack per process is enough.
    """

    def __init__(self, spool_dir: os.PathLike):
        self.spool_dir = Path(spool_dir)
        self.spans: List[Span] = []
        #: set by the workload around each request or operation.
        self.request_id: Optional[int] = None
        #: paths that did not resolve, and the targets that did.
        self.missing: List[str] = []
        self.installed: List[Target] = []
        self._stack: List[Span] = []
        self._root_pid = os.getpid()
        self._pid = self._root_pid
        self._base_depth = 0
        self._counter = 0
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: the inherited buffer belongs
            # to the parent, the inherited stack links the worker's spans
            # to the span that forked it.
            self._pid = pid
            self.spans = []
            self._base_depth = len(self._stack)
        self._counter += 1
        span = Span(pid * _ID_STRIDE + self._counter, name, layer,
                    time.perf_counter(),
                    parent=self._stack[-1].id if self._stack else None,
                    rid=self.request_id, pid=pid)
        self._stack.append(span)
        return span

    def close(self, span: Span, hook: Optional[Callable[[], Dict]] = None):
        span.end = time.perf_counter()
        self._stack.pop()
        if hook is not None:
            # The hook's own cost goes to a trace-layer span, not to the
            # caller's self time.
            cost = self.open("hook", "trace")
            try:
                span.attrs = hook()
            except Exception:  # noqa: BLE001 - a renamed result field
                span.attrs = None  # means an absent metric, not a crash
            finally:
                self.close(cost)
        self.spans.append(span)
        if self._pid != self._root_pid and len(self._stack) == self._base_depth:
            self._spool()

    @contextmanager
    def span(self, name: str, layer: str = "bench"):
        current = self.open(name, layer)
        try:
            yield current
        finally:
            self.close(current)

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_dict()) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """Merge and delete the worker spool files; returns all spans."""
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as spool:
                self.spans.extend(Span.from_dict(json.loads(line))
                                  for line in spool if line.strip())
            path.unlink()
        return self.spans

    # -- installation ---------------------------------------------------------

    def _wrap(self, function, target: Target):
        recorder, name, layer, hook = self, target.name, target.layer, \
            target.hook

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = recorder.open(name, layer)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                recorder.close(span)
                raise
            # Counts come from the outermost call only: a cached stage
            # re-enters itself to build the artifact it memoizes.
            nested = any(s.name == name for s in recorder._stack[:-1])
            recorder.close(span, None if hook is None or nested
                           else (lambda: hook(args, kwargs, result)))
            return result

        return wrapper

    def install(self, targets: Sequence[Target]) -> None:
        bindings = None
        for target in targets:
            found = resolve(target.path)
            if found is None:
                self.missing.append(target.path)
                continue
            owner, attribute, function = found
            wrapper = self._wrap(function, target)
            if inspect.isclass(owner):
                sites = [(owner, attribute)]
            else:
                if bindings is None:
                    bindings = _bindings()
                sites = bindings.get(id(function), [(owner, attribute)])
            for holder, name in sites:
                own = name in vars(holder)
                self._patches.append((holder, name, function, own))
                setattr(holder, name, wrapper)
            self.installed.append(target)

    def uninstall(self) -> None:
        while self._patches:
            holder, name, function, own = self._patches.pop()
            if own:
                setattr(holder, name, function)
            else:
                delattr(holder, name)
