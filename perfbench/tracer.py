"""Layer-attributed span tracing, installed from outside the program.

:meth:`Tracer.install` imports every ``repro`` module and replaces each
public function and public method of the twelve layer subpackages with a
span wrapper.  Nothing in ``src/`` changes, and the program runs its
default (production) paths: no ``Simulator(trace=)``, no hook-bus
subscriber, no ``REPRO_*`` toggle.

Spans are kept on a per-thread stack.  Every clock interval is charged
to the layer on top of the stack (``other`` when no layer span is open),
so a layer's self time is its span time minus the child spans inside it,
and the self times of all layers plus ``other`` add up to the traced
interval exactly.  A call from a layer into its own layer opens no new
span; ``<layer>.calls`` counts the calls that cross into the layer.

Generator functions (process bodies, ``section_end``, collectives,
``Network.transfer``) are wrapped in a generator that times each
resumption, not only the creation.

Besides spans, a few *probes* sit on chosen functions: inclusive-time
probes (queue, store, failure materialization, HTTP handler) and count
probes (roofline cost functions, message posts, network transfers).
Everything is accumulated in memory and read with :meth:`snapshot`.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import importlib
import inspect
import pkgutil
import sys
import threading
import time
import types
import typing as _t

#: the ``repro.<subpackage>`` layers spans are attributed to
LAYERS = ("api", "results", "scenarios", "perf", "fabric", "simulate",
          "mpi", "netmodel", "replication", "intra", "kernels", "apps")
OTHER = "other"


def layer_of(module_name: str) -> _t.Optional[str]:
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class _ThreadState:
    __slots__ = ("stack", "last", "self_s", "calls", "sums", "depth")

    def __init__(self, now: float) -> None:
        self.stack: _t.List[str] = [OTHER]
        self.last = now
        self.self_s: _t.Dict[str, float] = collections.defaultdict(float)
        self.calls: _t.Dict[str, int] = collections.defaultdict(int)
        self.sums: _t.Dict[str, float] = collections.defaultdict(float)
        self.depth: _t.Dict[str, int] = collections.defaultdict(int)


class Tracer:
    """Span wrappers plus probes; ``clock`` is ``time.perf_counter`` for
    the single-threaded workloads and ``time.thread_time`` in the result
    server, whose concurrent handler threads would otherwise count the
    same wall interval twice."""

    def __init__(self, clock: _t.Callable[[], float] = time.perf_counter
                 ) -> None:
        self.clock = clock
        self._tls = threading.local()
        self._states: _t.List[_ThreadState] = []
        self._lock = threading.Lock()
        self._wrapped: _t.Dict[int, _t.Tuple[_t.Any, _t.Any]] = {}
        self._outer: _t.Dict[int, int] = {}

    # ------------------------------------------------------------ state
    def _state(self) -> _ThreadState:
        st = _ThreadState(self.clock())
        with self._lock:
            self._states.append(st)
        self._tls.st = st
        return st

    def reset(self) -> None:
        """Zero every accumulator; call with no span open."""
        now = self.clock()
        with self._lock:
            for st in self._states:
                st.self_s.clear()
                st.calls.clear()
                st.sums.clear()
                st.last = now

    def snapshot(self) -> _t.Dict[str, _t.Dict[str, float]]:
        """Per-layer self seconds and calls plus probe sums since the
        last :meth:`reset`, summed over threads."""
        now = self.clock()
        self_s: _t.Dict[str, float] = collections.defaultdict(float)
        calls: _t.Dict[str, int] = collections.defaultdict(int)
        sums: _t.Dict[str, float] = collections.defaultdict(float)
        with self._lock:
            for st in self._states:
                st.self_s[st.stack[-1]] += now - st.last
                st.last = now
                for src, dst in ((st.self_s, self_s), (st.calls, calls),
                                 (st.sums, sums)):
                    for k, v in src.items():
                        dst[k] += v
        return {"self_s": dict(self_s), "calls": dict(calls),
                "sums": dict(sums)}

    # --------------------------------------------------------- wrappers
    def span(self, fn: _t.Callable[..., _t.Any], layer: str
             ) -> _t.Callable[..., _t.Any]:
        """``fn`` wrapped in a ``layer`` span (per resumption for a
        generator function)."""
        tls, clock, new_state = self._tls, self.clock, self._state
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_span(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
                gen = fn(*args, **kwargs)
                send, throw = gen.send, gen.throw
                box: _t.List[_t.Any] = []
                value: _t.Any = None
                exc: _t.Optional[BaseException] = None
                while True:
                    try:
                        st = tls.st
                    except AttributeError:
                        st = new_state()
                    stack = st.stack
                    outer = stack[-1]
                    if outer == layer:
                        try:
                            box.append(send(value) if exc is None
                                       else throw(exc))
                        except StopIteration as stop:
                            return stop.value
                    else:
                        now = clock()
                        st.self_s[outer] += now - st.last
                        st.last = now
                        stack.append(layer)
                        st.calls[layer] += 1
                        try:
                            box.append(send(value) if exc is None
                                       else throw(exc))
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            now = clock()
                            st.self_s[layer] += now - st.last
                            st.last = now
                            stack.pop()
                    value = exc = None
                    try:
                        # pop: the frame must not keep the yielded event
                        # alive (the engine recycles unreferenced
                        # timeouts by reference count)
                        value = yield box.pop()
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as thrown:  # re-thrown inside
                        exc = thrown
            return gen_span

        @functools.wraps(fn)
        def call_span(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            try:
                st = tls.st
            except AttributeError:
                st = new_state()
            stack = st.stack
            outer = stack[-1]
            if outer == layer:
                return fn(*args, **kwargs)
            now = clock()
            st.self_s[outer] += now - st.last
            st.last = now
            stack.append(layer)
            st.calls[layer] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                st.self_s[layer] += now - st.last
                st.last = now
                stack.pop()
        return call_span

    def _st(self) -> _ThreadState:
        try:
            return _t.cast(_ThreadState, self._tls.st)
        except AttributeError:
            return self._state()

    def timed(self, fn: _t.Callable[..., _t.Any], name: str
              ) -> _t.Callable[..., _t.Any]:
        """Inclusive wall seconds of the outermost calls of ``fn`` under
        ``name`` (plus ``name.n``, the number of such calls)."""
        @functools.wraps(fn)
        def probe(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            st = self._st()
            st.depth[name] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                st.depth[name] -= 1
                if not st.depth[name]:
                    st.sums[name] += time.perf_counter() - t0
                    st.sums[name + ".n"] += 1
        return probe

    def counted(self, fn: _t.Callable[..., _t.Any],
                count: _t.Callable[[_t.Dict[str, float], _t.Tuple[_t.Any, ...],
                                    _t.Dict[str, _t.Any], _t.Any], None]
                ) -> _t.Callable[..., _t.Any]:
        """Call ``count(sums, args, kwargs, result)`` after each call."""
        @functools.wraps(fn)
        def probe(*args: _t.Any, **kwargs: _t.Any) -> _t.Any:
            result = fn(*args, **kwargs)
            count(self._st().sums, args, kwargs, result)
            return result
        return probe

    # ------------------------------------------------------ installation
    def install(self) -> None:
        """Import every ``repro`` module, wrap the public functions and
        methods of the layer modules in spans, add the probes, then point
        every reference held in module globals, module-level dicts and the
        dataclass records inside them at the wrappers."""
        import repro
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith("__main__"):
                importlib.import_module(info.name)
        modules = sorted((name, mod) for name, mod in sys.modules.items()
                         if name.split(".")[0] == "repro" and mod is not None)
        for name, mod in modules:
            layer = layer_of(name)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__",
                                                   None) != name:
                    continue
                if isinstance(obj, types.FunctionType):
                    setattr(mod, attr, self._remember(obj, self.span(obj,
                                                                     layer)))
                elif isinstance(obj, type) and not issubclass(
                        obj, BaseException):
                    self.wrap_class(obj, layer)
        repro_probes(self)
        for _name, mod in modules:
            self._rebind(vars(mod), depth=1)

    def wrap_class(self, cls: type, layer: str) -> None:
        """Span-wrap the public methods ``cls`` defines itself."""
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, types.FunctionType):
                new: _t.Any = self.span(obj, layer)
            elif isinstance(obj, (staticmethod, classmethod)):
                new = type(obj)(self.span(obj.__func__, layer))
            else:
                continue
            setattr(cls, attr, self._remember(obj, new))

    def patch(self, owner: _t.Any, name: str,
              wrap: _t.Callable[[_t.Callable[..., _t.Any]],
                                _t.Callable[..., _t.Any]]) -> None:
        """Replace ``owner.name`` (a module function or class method)
        with ``wrap(current)``, keeping staticmethod/classmethod."""
        raw = vars(owner)[name] if isinstance(owner, type) else getattr(
            owner, name)
        if isinstance(raw, (staticmethod, classmethod)):
            new: _t.Any = type(raw)(wrap(raw.__func__))
        else:
            new = wrap(raw)
        setattr(owner, name, self._remember(raw, new))

    def _remember(self, old: _t.Any, new: _t.Any) -> _t.Any:
        # a probe may wrap a span wrapper: references to the original
        # must then lead to the outermost wrapper
        first = self._outer.pop(id(old), None)
        if first is None:
            self._wrapped[id(old)] = (old, new)
            first = id(old)
        else:
            self._wrapped[first] = (self._wrapped[first][0], new)
        self._outer[id(new)] = first
        return new

    def _rebind(self, table: _t.MutableMapping[str, _t.Any],
                depth: int) -> None:
        """Point references in ``table`` (and, ``depth`` levels down, in
        nested dicts and dataclass records) at the wrappers."""
        for key, obj in list(table.items()):
            hit = self._wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                table[key] = hit[1]
            elif depth >= 0 and isinstance(obj, dict):
                self._rebind(obj, depth - 1)
            elif depth >= 0 and dataclasses.is_dataclass(obj) and \
                    not isinstance(obj, type) and hasattr(obj, "__dict__"):
                self._rebind(obj.__dict__, -1)


# ------------------------------------------------------------- probes
def _count_cost(sums: _t.Dict[str, float], _args: _t.Any, _kw: _t.Any,
                result: _t.Any) -> None:
    flops, nbytes = result
    sums["kernels.flops"] += flops
    sums["kernels.bytes"] += nbytes


def _count_send(sums: _t.Dict[str, float], args: _t.Tuple[_t.Any, ...],
                kwargs: _t.Dict[str, _t.Any], _result: _t.Any) -> None:
    # MpiWorld.post_send(self, src, dst, src_rank, tag, context,
    #                    payload, nbytes)
    sums["mpi.msgs"] += 1
    sums["mpi.bytes"] += kwargs["nbytes"] if "nbytes" in kwargs else args[7]


def _count_transfer(sums: _t.Dict[str, float], _args: _t.Any, _kw: _t.Any,
                    _result: _t.Any) -> None:
    sums["netmodel.transfers"] += 1


def repro_probes(t: Tracer) -> None:
    """The probes behind the per-layer counters (see the module doc)."""
    from repro.fabric import queue, serve, store
    from repro.mpi.world import MpiWorld
    from repro.netmodel.network import Network
    from repro.scenarios import failures

    for name, mod in sorted(sys.modules.items()):
        if mod is None or layer_of(name) not in ("kernels", "apps"):
            continue
        for attr, obj in list(vars(mod).items()):
            if (attr.endswith("_cost") and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == name):
                t.patch(mod, attr, lambda f: t.counted(f, _count_cost))
    t.patch(MpiWorld, "post_send", lambda f: t.counted(f, _count_send))
    t.patch(Network, "transfer", lambda f: t.counted(f, _count_transfer))
    for attr in [a for a in vars(queue.WorkQueue) if not a.startswith("_")]:
        if isinstance(vars(queue.WorkQueue)[attr], types.FunctionType):
            t.patch(queue.WorkQueue, attr,
                    lambda f: t.timed(f, "fabric.queue_s"))
    for cls in (store.FileStore, store.SqliteStore):
        t.patch(cls, "get", lambda f: t.timed(f, "fabric.store_get_s"))
        t.patch(cls, "put", lambda f: t.timed(f, "fabric.store_put_s"))
    for obj in list(vars(failures).values()):
        if isinstance(obj, type) and "materialize" in vars(obj):
            t.patch(obj, "materialize",
                    lambda f: t.timed(f, "scenarios.materialize_s"))
    t.patch(serve._Handler, "do_GET", lambda f: t.timed(
        t.span(f, "fabric"), "fabric.serve_handler_s"))
