"""The frozen :class:`Scenario` spec and its dict/JSON codec.

A scenario is *first-class data*: everything that distinguishes one run
of one program in the paper's methodology — application + problem
configuration, logical rank count, execution mode, replication degree
and placement spread, scheduler and inout-copy strategy, the machine and
network models, and the failure schedule — packed into one frozen,
hashable, picklable value with an exact dict/JSON round-trip.

Because a scenario is pure data, it is also a *cache key*: the sweep
driver memoizes results on the scenario's stable serialization, so two
figures (or a figure and an example) that evaluate the same scenario
share one simulation (see :func:`repro.scenarios.run.sweep_scenarios`).

Construct them directly, derive variants with :meth:`Scenario.replace`
or :meth:`Scenario.with_overrides` (the CLI's ``--set key=value``
path), and run them with :func:`repro.run`.
"""

from __future__ import annotations

import ast
import dataclasses
import enum
import json
import sys
import typing as _t

from ..intra import MODES, SCHEDULERS, CopyStrategy, Scheduler, make_scheduler
from ..netmodel import (GRID5000_MACHINE, GRID5000_NETWORK, MachineSpec,
                        NetworkSpec, TESTBENCH_MACHINE, TESTBENCH_NETWORK)
from .failures import NO_FAILURES, FailureSchedule
from .policies import RESTART_TRIGGERS, RestartPolicy

#: named machine models a scenario can reference (extensible)
MACHINES: _t.Dict[str, MachineSpec] = {
    "grid5000": GRID5000_MACHINE,
    "grid5000-2015": GRID5000_MACHINE,
    "testbench": TESTBENCH_MACHINE,
}

#: named network models a scenario can reference (extensible)
NETWORKS: _t.Dict[str, NetworkSpec] = {
    "grid5000": GRID5000_NETWORK,
    "grid5000-2015": GRID5000_NETWORK,
    "testbench": TESTBENCH_NETWORK,
}

#: scenario fields that make no sense on the native baseline; stripped
#: by :func:`baseline_overrides` so a figure-wide ``--set mode=intra``
#: does not destroy the figure's reference run
_REPLICATION_ONLY = frozenset({"mode", "degree", "spread", "scheduler",
                               "copy_strategy", "failures", "fd_delay",
                               "restart"})


# --------------------------------------------------------------- codec
#: class name → class, for every type the codec may need to rebuild
_CODEC_TYPES: _t.Dict[str, _t.Type[_t.Any]] = {}


def register_codec_type(cls: _t.Type[_t.Any]) -> _t.Type[_t.Any]:
    """Register a dataclass or enum so scenario (de)serialization can
    rebuild instances of it.  App config classes are registered
    automatically by :func:`repro.scenarios.apps.register_app`."""
    _CODEC_TYPES[cls.__name__] = cls
    return cls


for _cls in (MachineSpec, NetworkSpec, CopyStrategy, RestartPolicy):
    register_codec_type(_cls)


#: an extension hook for the codec: ``hook(obj, recurse)`` returns the
#: encoding/decoding of a type the base codec does not know, or
#: ``NotImplemented`` to fall through (``recurse`` re-enters the full
#: codec, extension included).  :mod:`repro.results` layers its numpy
#: payload support on this — one marker vocabulary, one implementation.
CodecExtension = _t.Callable[[_t.Any, _t.Callable[[_t.Any], _t.Any]],
                             _t.Any]


def _intern_if_namelike(value: _t.Any) -> _t.Any:
    """Intern identifier-like decoded strings (``"intra"``, app names).

    Mirrors the auto-interning registry-literal scenarios get from the
    compiler, so a scenario decoded from JSON (a fabric worker, a
    service request) produces *pickle-byte-identical* results: pickle
    memoizes by object identity, and without interning the decoded
    ``mode`` string would serialize as a fresh string where the
    literal-built scenario's shares a memo slot (``repro.fabric``'s
    differential tests pin this parity).  Non-identifier strings are
    left alone — the compiler would not have interned those either.
    """
    if isinstance(value, str) and value.isidentifier():
        return sys.intern(value)
    return value


def encode_value(obj: _t.Any, *,
                 extension: _t.Optional[CodecExtension] = None) -> _t.Any:
    """Lower ``obj`` to plain JSON types, reversibly.

    Tuples, frozensets, enums and (registered) dataclasses are wrapped
    in single-key ``{"$kind": ...}`` markers so :func:`decode_value`
    restores the exact Python value — the round-trip is an identity.
    """
    def rec(v: _t.Any) -> _t.Any:
        return encode_value(v, extension=extension)

    if extension is not None:
        out = extension(obj, rec)
        if out is not NotImplemented:
            return out
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        return {"$enum": [type(obj).__name__, obj.name]}
    if isinstance(obj, FailureSchedule):
        return {"$failures": obj.to_dict()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _CODEC_TYPES:
            raise TypeError(
                f"cannot serialize {name}: call "
                f"repro.scenarios.register_codec_type({name}) first")
        fields = {f.name: rec(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"$dc": [name, fields]}
    if isinstance(obj, tuple):
        return {"$tuple": [rec(v) for v in obj]}
    if isinstance(obj, (set, frozenset)):
        items = sorted(obj, key=lambda v: (type(v).__name__, repr(v)))
        return {"$frozenset": [rec(v) for v in items]}
    if isinstance(obj, list):
        return [rec(v) for v in obj]
    if isinstance(obj, dict):
        bad = [k for k in obj if not isinstance(k, str)]
        if bad:
            raise TypeError(f"only str dict keys serialize; got {bad!r}")
        return {k: rec(v) for k, v in obj.items()}
    raise TypeError(f"cannot serialize {type(obj).__name__} "
                    f"({obj!r}) into a scenario")


def decode_value(obj: _t.Any, *,
                 extension: _t.Optional[CodecExtension] = None) -> _t.Any:
    """Inverse of :func:`encode_value` (pass the matching
    ``extension``)."""
    def rec(v: _t.Any) -> _t.Any:
        return decode_value(v, extension=extension)

    if extension is not None:
        out = extension(obj, rec)
        if out is not NotImplemented:
            return out
    if isinstance(obj, list):
        return [rec(v) for v in obj]
    if not isinstance(obj, dict):
        return obj
    if set(obj) == {"$enum"}:
        name, member = obj["$enum"]
        return getattr(_codec_type(name), member)
    if set(obj) == {"$failures"}:
        return FailureSchedule.from_dict(obj["$failures"])
    if set(obj) == {"$dc"}:
        name, fields = obj["$dc"]
        return _codec_type(name)(**{k: rec(v)
                                    for k, v in fields.items()})
    if set(obj) == {"$tuple"}:
        return tuple(rec(v) for v in obj["$tuple"])
    if set(obj) == {"$frozenset"}:
        return frozenset(rec(v) for v in obj["$frozenset"])
    return {k: rec(v) for k, v in obj.items()}


def _codec_type(name: str) -> _t.Type[_t.Any]:
    cls = _CODEC_TYPES.get(name)
    if cls is None:
        raise ValueError(f"unknown serialized type {name!r}; register it "
                         f"with repro.scenarios.register_codec_type")
    return cls


# ------------------------------------------------------------ the spec
@dataclasses.dataclass(frozen=True)
class Scenario:
    """One fully-specified run of one program in one configuration.

    Attributes
    ----------
    app:
        Registered application name (see
        :mod:`repro.scenarios.apps`) or an importable
        ``"module:qualname"`` reference to a program generator.
    config:
        The app's problem configuration (a registered frozen dataclass),
        or ``None`` for programs taking no config argument.
    n_logical:
        Logical (application-visible) rank count.  Physical process
        count follows from mode/degree/spread via ``nodes_for``.
    mode:
        ``"native"`` | ``"sdr"`` | ``"intra"`` (the paper's three
        configurations).
    degree / spread:
        Replication degree and replica placement spread (replicated
        modes only).
    machine / network:
        A name from :data:`MACHINES` / :data:`NETWORKS` or an inline
        :class:`~repro.netmodel.MachineSpec` /
        :class:`~repro.netmodel.NetworkSpec`.
    distance_model:
        Cluster distance model (``"switch"`` or ``"linear"``).
    scheduler:
        Task scheduler name from :data:`repro.intra.SCHEDULERS`, or
        ``None`` for the launcher default (static block).
    copy_strategy:
        inout-protection strategy (intra mode).
    fd_delay:
        Failure-detection delay of the replicated runtime, seconds.
    failures:
        Declarative :class:`~repro.scenarios.failures.FailureSchedule`.
        Installed on replicated runs; native runs have no replicas to
        kill, so the schedule is vacuous there.
    restart:
        Optional :class:`~repro.scenarios.policies.RestartPolicy`: dead
        replicas respawn and rejoin work sharing per the policy (§VI
        restart extension; requires ``mode="intra"``, ``degree=2`` and
        an app registered with a ``restartable`` factory).  ``None``
        (the default) leaves crashes permanent.  The field is omitted
        from serialization and cache keys while at its default, so
        every pre-existing scenario keeps its exact cache key.
    """

    app: str
    config: _t.Any = None
    n_logical: int = 4
    mode: str = "native"
    degree: int = 2
    spread: int = 1
    machine: _t.Union[str, MachineSpec] = "grid5000"
    network: _t.Union[str, NetworkSpec] = "grid5000"
    distance_model: str = "switch"
    scheduler: _t.Optional[str] = None
    copy_strategy: CopyStrategy = CopyStrategy.LAZY
    fd_delay: float = 50e-6
    failures: FailureSchedule = NO_FAILURES
    restart: _t.Optional[RestartPolicy] = dataclasses.field(
        default=None, metadata={"omit_if_default": True})

    def __post_init__(self) -> None:
        if not isinstance(self.app, str) or not self.app:
            raise ValueError("app must be a non-empty string")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one "
                             f"of {MODES}")
        if self.n_logical < 1:
            raise ValueError("n_logical must be >= 1")
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if self.spread < 1:
            raise ValueError("spread must be >= 1")
        if self.fd_delay < 0:
            raise ValueError("fd_delay must be non-negative")
        if isinstance(self.copy_strategy, str):
            object.__setattr__(self, "copy_strategy",
                               _parse_copy_strategy(self.copy_strategy))
        if isinstance(self.scheduler, Scheduler):
            object.__setattr__(self, "scheduler", self.scheduler.name)
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {self.scheduler!r}; "
                             f"expected one of {sorted(SCHEDULERS)}")
        if isinstance(self.failures, dict):
            object.__setattr__(self, "failures",
                               FailureSchedule.from_dict(self.failures))
        if not isinstance(self.failures, FailureSchedule):
            raise ValueError("failures must be a FailureSchedule")
        if isinstance(self.restart, dict):
            object.__setattr__(self, "restart",
                               RestartPolicy.from_dict(self.restart))
        if self.restart is not None:
            if not isinstance(self.restart, RestartPolicy):
                raise ValueError("restart must be a RestartPolicy, its "
                                 "to_dict() mapping, or None")
            if self.mode != "intra":
                raise ValueError(
                    f"restart policies require mode='intra' (work "
                    f"sharing is what a restart recovers), got mode="
                    f"{self.mode!r}")
            if self.degree != 2:
                raise ValueError(
                    "restart policies require degree=2 (the paper's "
                    "configuration; with a single survivor there is no "
                    f"schedule-agreement race), got degree={self.degree}")
        self.resolved_machine()   # validates names / types
        self.resolved_network()

    # ------------------------------------------------------- resolution
    def resolved_machine(self) -> MachineSpec:
        """The concrete machine model."""
        return _resolve_named(self.machine, MACHINES, MachineSpec,
                              "machine")

    def resolved_network(self) -> NetworkSpec:
        """The concrete network model."""
        return _resolve_named(self.network, NETWORKS, NetworkSpec,
                              "network")

    def make_scheduler(self) -> _t.Optional[Scheduler]:
        """A fresh scheduler instance, or ``None`` for the default."""
        return None if self.scheduler is None \
            else make_scheduler(self.scheduler)

    # -------------------------------------------------------- deriving
    def replace(self, **changes: _t.Any) -> "Scenario":
        """A copy with the given fields replaced (validated anew)."""
        return dataclasses.replace(self, **changes)

    def with_failures(self, schedule: FailureSchedule) -> "Scenario":
        """A copy carrying ``schedule`` as its failure workload."""
        return self.replace(failures=schedule)

    def with_restart(self, policy: _t.Optional[RestartPolicy]
                     ) -> "Scenario":
        """A copy carrying ``policy`` as its restart behaviour
        (``None`` makes crashes permanent again)."""
        return self.replace(restart=policy)

    def with_overrides(self, overrides: _t.Mapping[str, _t.Any]
                       ) -> "Scenario":
        """Apply ``--set``-style overrides; returns a new, re-validated
        scenario (``self`` is never mutated — scenarios are frozen).

        Parameters
        ----------
        overrides:
            Mapping of override keys to values, as produced by
            :func:`parse_override` from CLI ``--set key=value``
            expressions.  Keys are:

            * scenario field names — ``degree``, ``mode``,
              ``n_logical``, ``scheduler``, ... (see the class
              docstring for the full list);
            * dotted config fields — ``config.nx`` replaces one field
              of the app's config dataclass;
            * ``config`` — replaces the whole config (a codec dict from
              :func:`encode_value` or a config instance);
            * ``failures`` — a :class:`~repro.scenarios.failures.
              FailureSchedule` or its ``to_dict`` form, e.g.
              ``{"kind": "poisson", "rate": 400, "seed": 1,
              "horizon": 0.005}``.

        Values are coerced toward the type of the value they replace
        (ints promote to floats, lists become tuples or frozensets,
        ``"true"``/``"false"`` strings become bools, copy-strategy and
        failure-schedule dicts are decoded), so CLI string literals land
        correctly.

        Raises
        ------
        ValueError
            On an unknown scenario or config field — the message lists
            the valid field names — and on values the target field's
            validation rejects.
        """
        if not overrides:
            return self
        scalar: _t.Dict[str, _t.Any] = {}
        cfg = self.config
        for key, raw in overrides.items():
            if key.startswith("config."):
                fname = key[len("config."):]
                if not (dataclasses.is_dataclass(cfg)
                        and not isinstance(cfg, type)):
                    raise ValueError(
                        f"cannot set {key!r}: scenario has no structured "
                        f"config (config={cfg!r})")
                cfg_fields = [f.name for f in dataclasses.fields(cfg)]
                if fname not in cfg_fields:
                    raise ValueError(
                        f"unknown config field {fname!r} for "
                        f"{type(cfg).__name__}; valid config fields: "
                        f"{', '.join(sorted(cfg_fields))}")
                cur = getattr(cfg, fname)
                cfg = dataclasses.replace(
                    cfg, **{fname: _coerce_like(cur, raw)})
            elif key == "config":
                cfg = decode_value(raw) if isinstance(raw, dict) else raw
            elif key == "failures":
                scalar[key] = (FailureSchedule.from_dict(raw)
                               if isinstance(raw, dict) else raw)
            elif key == "restart":
                scalar[key] = (RestartPolicy.from_dict(raw)
                               if isinstance(raw, dict) else raw)
            else:
                fields = [f.name for f in dataclasses.fields(self)]
                if key not in fields:
                    raise ValueError(
                        f"unknown scenario field {key!r}; valid fields: "
                        f"{', '.join(sorted(fields))} (config fields via "
                        f"config.<name>)")
                scalar[key] = _coerce_like(getattr(self, key), raw)
        return dataclasses.replace(self, config=cfg, **scalar)

    # ------------------------------------------------------ round-trip
    def to_dict(self) -> _t.Dict[str, _t.Any]:
        """Plain-JSON-types dict; ``Scenario.from_dict`` is its exact
        inverse.

        Fields flagged ``omit_if_default`` (e.g. ``restart``) are
        skipped while at their default, so dicts — and the cache keys
        hashed from them — written before such a field existed stay
        byte-identical."""
        return {f.name: encode_value(getattr(self, f.name))
                for f in dataclasses.fields(self)
                if not (f.metadata.get("omit_if_default")
                        and getattr(self, f.name) == f.default)}

    @classmethod
    def from_dict(cls, data: _t.Mapping[str, _t.Any]) -> "Scenario":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**{k: _intern_if_namelike(decode_value(v))
                      for k, v in data.items()})

    def to_json(self, **dumps_kw: _t.Any) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **dumps_kw)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        """One-line human description (used by ``--list``)."""
        bits = [self.app, f"n={self.n_logical}", self.mode]
        if self.mode != "native":
            bits.append(f"d={self.degree}")
            if self.spread != 1:
                bits.append(f"spread={self.spread}")
        if self.scheduler:
            bits.append(self.scheduler)
        if self.failures != NO_FAILURES:
            bits.append(f"failures={self.failures.kind}")
        if self.restart is not None:
            bits.append(f"restart={self.restart.trigger}")
        return " ".join(bits)


def _resolve_named(value: _t.Any, table: _t.Mapping[str, _t.Any],
                   spec_cls: _t.Type[_t.Any], what: str) -> _t.Any:
    if isinstance(value, spec_cls):
        return value
    if isinstance(value, str):
        if value in table:
            return table[value]
        raise ValueError(f"unknown {what} {value!r}; expected one of "
                         f"{sorted(set(table))} or an inline "
                         f"{spec_cls.__name__}")
    raise ValueError(f"{what} must be a name or a {spec_cls.__name__}, "
                     f"got {type(value).__name__}")


def machine_name_for(spec: MachineSpec) -> _t.Union[str, MachineSpec]:
    """The registry name of ``spec`` if it is a named machine (so
    scenarios built from the singletons serialize — and cache — by
    name), else ``spec`` itself."""
    for name, known in MACHINES.items():
        if known == spec:
            return name
    return spec


def network_name_for(spec: NetworkSpec) -> _t.Union[str, NetworkSpec]:
    """Like :func:`machine_name_for`, for network models."""
    for name, known in NETWORKS.items():
        if known == spec:
            return name
    return spec


def _parse_copy_strategy(value: str) -> CopyStrategy:
    try:
        return CopyStrategy(value)
    except ValueError:
        try:
            return CopyStrategy[value.upper()]
        except KeyError:
            raise ValueError(
                f"unknown copy strategy {value!r}; expected one of "
                f"{[s.value for s in CopyStrategy]}") from None


def _coerce_like(current: _t.Any, raw: _t.Any) -> _t.Any:
    """Nudge an override value toward the type it replaces."""
    if isinstance(current, CopyStrategy) and isinstance(raw, str):
        return _parse_copy_strategy(raw)
    if isinstance(current, frozenset) and isinstance(raw, (list, tuple,
                                                           set)):
        return frozenset(raw)
    if isinstance(current, tuple) and isinstance(raw, (list, tuple)):
        return tuple(raw)
    if isinstance(current, bool) and isinstance(raw, str):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
    if isinstance(current, float) and isinstance(raw, int) \
            and not isinstance(raw, bool):
        return float(raw)
    return raw


def parse_override(expr: str) -> _t.Tuple[str, _t.Any]:
    """Parse one CLI ``--set key=value`` expression.

    The value is read as a Python literal when possible (``3``,
    ``2.5``, ``(8, 16)``, ``{"kind": "poisson", ...}``) and kept as a
    plain string otherwise (``mode=intra``).
    """
    key, sep, value = expr.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ValueError(f"override {expr!r} is not of the form "
                         f"key=value")
    value = value.strip()
    try:
        return key, ast.literal_eval(value)
    except (ValueError, SyntaxError):
        return key, value


def baseline_overrides(overrides: _t.Mapping[str, _t.Any]
                       ) -> _t.Dict[str, _t.Any]:
    """The subset of ``overrides`` safe to apply to a figure's native
    baseline point (drops replication-only knobs such as ``mode`` and
    ``degree``, so ``--set mode=intra`` reconfigures the replicated
    points without destroying the reference run)."""
    return {k: v for k, v in overrides.items()
            if k not in _REPLICATION_ONLY}
