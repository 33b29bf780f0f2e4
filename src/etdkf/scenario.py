"""Scenario configuration: YAML schema, validation, and shipped presets."""

from __future__ import annotations

import copy
import difflib
import functools
import math
import numbers
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass

import numpy as np
import yaml

from .attacks import ATTACK_KINDS, AttackPlan, SignalSpec
from .detection import DetectorConfig
from .errors import ConfigurationError, ValidationError
from .filtering import TriggerConfig
from .graphs import Graph, connected_components
from .models import ProcessModel, SensorModel, is_collectively_observable
from .resilience import ResilientConfig, assumption4_satisfied

FILTER_MODES = ("nominal", "monitored", "resilient")
CONSENSUS_MODES = ("scalar", "matrix")
# libyaml's safe dumper and loader where PyYAML was built with it: the same
# bytes and mappings as yaml.safe_dump and yaml.safe_load, several times faster.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class ConsensusConfig:
    mode: str = "scalar"
    gamma: float = 0.05

    def __post_init__(self):
        if self.mode not in CONSENSUS_MODES:
            raise ConfigurationError(f"consensus mode must be one of {CONSENSUS_MODES}")


@dataclass(kw_only=True)
class ScenarioConfig:
    """Everything one deterministic run needs; one tick equals one step k.
    The fields are in the order `to_yaml` writes them."""

    name: str = "scenario"
    steps: int
    seed: int = 0
    steps_per_second: float = 1.0
    process: ProcessModel
    sensors: list[SensorModel]
    graph: Graph
    trigger: TriggerConfig
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    filter_mode: str = "nominal"
    beliefs_pinned: bool = False
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    resilient: ResilientConfig = field(default_factory=ResilientConfig)
    attacks: list[AttackPlan] = field(default_factory=list)
    bound_monitor: bool | None = None   # None: on exactly in resilient mode

    @property
    def dt(self) -> float:
        return 1.0 / self.steps_per_second

    def bound_monitor_enabled(self) -> bool:
        if self.bound_monitor is None:
            return self.filter_mode == "resilient"
        return bool(self.bound_monitor)

    # -- validation ----------------------------------------------------------

    def validate(self):
        """Return the list of warnings; raise ValidationError listing every
        violation when the scenario is unusable."""
        errors, warnings = [], []
        n = self.process.n
        N = self.graph.node_count
        if self.steps < 0:
            errors.append(f"steps must be >= 0, got {self.steps}")
        if self.seed < 0:
            errors.append(f"seed must be >= 0, got {self.seed}")
        if self.filter_mode not in FILTER_MODES:
            errors.append(f"filter mode {self.filter_mode!r} not in {FILTER_MODES}")
        if len(self.sensors) != N:
            errors.append(f"{len(self.sensors)} sensors for {N} graph nodes")
        for idx, s in enumerate(self.sensors, start=1):
            if s.n != n:
                errors.append(f"sensor {idx}: C has {s.n} columns, state dim is {n}")
            elif s.p not in (1, n) and self.bound_monitor_enabled():
                # B is calibrated from ||x(k+1) - x(k) + v(k+1)||, an n-vector plus a p-vector.
                errors.append(f"sensor {idx}: the bound monitor needs 1 or {n} channels, "
                              f"the sensor has {s.p}")
        if self.steps_per_second <= 0:
            errors.append(f"steps_per_second must be positive, got {self.steps_per_second}")

        if not errors:
            if len(connected_components(self.graph)) != 1:
                warnings.append("communication graph is disconnected")
            all_nodes = list(self.graph.nodes)
            if not is_collectively_observable(self.process, self.sensors, all_nodes, N):
                errors.append("network is not collectively observable (Assumption-3-style check)")

        targeted = set()
        for idx, plan in enumerate(self.attacks):
            label = f"attacks[{idx}]"
            if plan.kind not in ATTACK_KINDS:
                errors.append(f"{label}: unknown kind {plan.kind!r}")
                continue
            dim = None   # channel count of the attack signal, when it has one
            if plan.kind == "channel_injection":
                j, i = plan.edge
                if (min(j, i), max(j, i)) not in self.graph.edges:
                    errors.append(f"{label}: edge {plan.edge} not in the graph")
                key = ("edge", (j, i))
                dim = n
            else:
                if not 1 <= (plan.node or 0) <= N:
                    errors.append(f"{label}: node {plan.node} outside 1..{N}")
                elif len(self.sensors) == N:
                    dim = self.sensors[plan.node - 1].p
                key = ("node", plan.node)
                if plan.kind == "non_triggering" and not plan.phi < self.trigger.alpha:
                    errors.append(f"{label}: phi={plan.phi} must be < alpha={self.trigger.alpha}")
            # The engine's own signal evaluation, so `run` cannot fail on it later.
            if dim is not None:
                try:
                    if plan.kind == "replay":
                        plan.upsilon_vector(dim)
                    elif plan.kind != "non_triggering":
                        plan.signal.evaluate(0.0, dim)
                except (TypeError, ValueError, OverflowError) as exc:
                    errors.append(f"{label}: {exc}")
            if key in targeted:
                errors.append(f"{label}: duplicate target {key}")
            targeted.add(key)
            if plan.onset >= self.steps and self.steps > 0:
                warnings.append(f"{label}: onset {plan.onset} beyond run end {self.steps}")

        if self.detector.window > self.steps > 0:
            warnings.append(
                f"detector window {self.detector.window} exceeds the run's {self.steps} "
                f"steps: no window fills, so phi and psi stay NaN and nothing is detected")

        if not errors and self.filter_mode == "resilient":
            status = assumption4_satisfied(self.graph, self.compromised_nodes())
            bad = sorted(i for i, ok in status.items() if not ok)
            if bad:
                warnings.append(
                    f"majority-intact neighborhood condition violated at nodes {bad}"
                )

        if errors:
            raise ValidationError(errors)
        return warnings

    def compromised_nodes(self) -> set:
        return {p.node for p in self.attacks if p.node is not None}

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return _plain(ScenarioConfig, self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Parse the mapping form; raise ValidationError listing every unknown
        or missing key, value of the wrong type and section-level violation."""
        if not isinstance(d, dict):
            raise ValidationError([f"a scenario is a mapping, got {type(d).__name__}"])
        errors = []
        cfg = _coerce(cls, copy.deepcopy(d), "", errors)
        if errors:
            raise ValidationError(errors)
        return cfg

    def to_yaml(self) -> str:
        return yaml.dump(self.to_dict(), Dumper=_DUMPER, sort_keys=False)

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        try:
            d = yaml.load(text, Loader=_LOADER)
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = " ".join(str(getattr(exc, "problem", None) or exc).split())
            raise ValidationError([f"not valid YAML: {problem}{where}"]) from None
        return cls.from_dict(d)


# -- YAML schema -----------------------------------------------------------------
#
# The config dataclasses are the schema: a field's YAML key is its lowercased
# name, its annotation picks the coercion and its default fills an absent key.

# Keys other than the lowercased field name; a dotted key puts the field in a
# section of its parent's mapping.
RENAMED = {(Graph, "node_count"): "nodes", (SignalSpec, "kind"): "type",
           (ScenarioConfig, "filter_mode"): "filter.mode",
           (ScenarioConfig, "beliefs_pinned"): "filter.beliefs_pinned"}
# The keys each attack kind and signal type carries besides its kind and the
# required fields: to_dict writes exactly these and from_dict reads no other.
KIND_KEYS = {
    AttackPlan: {"measurement_injection": ("node", "signal"),
                 "channel_injection": ("edge", "signal"),
                 "non_triggering": ("node", "phi", "sampler"),
                 "replay": ("node", "upsilon")},
    SignalSpec: {"constant": ("value",), "sinusoid": ("offset", "amplitude", "frequency")},
}
# Keys that earlier versions wrote and nothing reads: old run directories still load.
REMOVED_KEYS = {ScenarioConfig: ("warmup_steps",)}
# What a scalar field accepts: bool() and int() never see a string or a fraction,
# and a float may be a string because PyYAML reads 1e-12 and 1.0e5 as strings.
# Matrices are read in `_coerce`; signal values pass through to `validate`.
_SCALARS = {
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", lambda v: isinstance(v, numbers.Real) and type(v) is not bool
          and float(v).is_integer()),
    float: ("a finite number", lambda v: isinstance(v, (numbers.Real, str))
            and type(v) is not bool and math.isfinite(float(v))),
}
# A key's field name, the field's type without `| None`, whether the key must be
# given, and whether it may be null.
_Key = typing.NamedTuple("_Key", [("name", str), ("type", object), ("required", bool),
                                  ("nullable", bool)])


@functools.cache
def _schema(cls, kind=None) -> dict:
    """YAML key -> _Key for cls in field order, a section as a nested dict;
    for a kind in KIND_KEYS, only the keys an object of that kind carries."""
    hints, keep = typing.get_type_hints(cls), KIND_KEYS.get(cls, {}).get(kind)
    schema = {}
    for f in fields(cls):
        tp, required = hints[f.name], f.default is MISSING and f.default_factory is MISSING
        if keep is None or required or f.name == "kind" or f.name in keep:
            *section, key = RENAMED.get((cls, f.name), f.name.lower()).split(".")
            nullable = isinstance(tp, types.UnionType)
            (schema.setdefault(section[0], {}) if section else schema)[key] = _Key(
                f.name, tp.__args__[0] if nullable else tp, required, nullable)
    return schema


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _hint(word, choices) -> str:
    close = difflib.get_close_matches(str(word), list(choices), n=1)
    return f"did you mean {close[0]!r}?" if close else f"expected one of {', '.join(choices)}"


def _read(schema: dict, d, path: str, errors: list, ignored=()) -> dict:
    """The keyword arguments the mapping d gives; a section adds its own."""
    if not isinstance(d, dict):
        errors.append(f"{path}: expected a mapping, got {type(d).__name__}")
        return {}
    errors.extend(f"unknown key {_join(path, key)!r} ({_hint(key, schema)})"
                  for key in d if key not in schema and key not in ignored)
    kwargs = {}
    for key, spec in schema.items():
        sub, value = _join(path, key), d.get(key)
        if key not in d:
            if not isinstance(spec, dict) and spec.required:
                errors.append(f"missing required key {sub!r}")
        elif isinstance(spec, dict):
            kwargs.update(_read(spec, value, sub, errors))
        else:
            kwargs[spec.name] = (None if value is None and spec.nullable
                                 else _coerce(spec.type, value, sub, errors))
    return kwargs


def _coerce(tp, value, path: str, errors: list):
    """value read as a tp: a config dataclass from a mapping, a list, tuple or
    frozenset from a list item by item, and a scalar strictly. None once every
    violation found is in errors, each under its dotted path."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if is_dataclass(tp):
        before, kind = len(errors), None
        if tp in KIND_KEYS and isinstance(value, dict):
            key = RENAMED.get((tp, "kind"), "kind")
            kind = value.get(key, getattr(tp, "kind", None))   # a signal has a default kind
            if not isinstance(kind, str) or kind not in KIND_KEYS[tp]:
                if key in value:
                    errors.append(f"{_join(path, key)}: unknown {key} {kind!r} "
                                  f"({_hint(kind, KIND_KEYS[tp])})")
                kind = None
        kwargs = _read(_schema(tp, kind), value, path, errors, REMOVED_KEYS.get(tp, ()))
        if len(errors) == before:
            try:
                return tp(**kwargs)
            except (TypeError, ValueError, OverflowError) as exc:   # ConfigurationError too
                errors.append(f"{path}: {exc}")
        return None
    if tp == list[SensorModel] and isinstance(value, dict):   # {count, c, r}: equal sensors
        count = _coerce(int, value.pop("count", None), _join(path, "count"), errors)
        sensor = _coerce(SensorModel, value, path, errors)
        return [copy.deepcopy(sensor) for _ in range(count or 0)]
    if origin in (list, tuple, frozenset):
        if not isinstance(value, (list, tuple)) or origin is tuple and len(value) != len(args):
            size = f" of {len(args)}" if origin is tuple else ""
            errors.append(f"{path}: expected a list{size}, got {value!r}")
            return None
        return (tuple if origin is tuple else list)(
            _coerce(args[i] if origin is tuple else args[0], v, f"{path}[{i}]", errors)
            for i, v in enumerate(value))
    if tp is np.ndarray:   # a matrix: its dataclass checks the shape
        try:
            if np.isfinite(a := np.asarray(value, dtype=float)).all():
                return a
            errors.append(f"{path}: entry {a[~np.isfinite(a)][0]} is not finite")
        except (TypeError, ValueError, OverflowError) as exc:
            errors.append(f"{path}: {exc}")
        return None
    if tp not in _SCALARS:
        return value
    expected, accepts = _SCALARS[tp]
    try:
        if accepts(value):
            return tp(value)
    except (ValueError, OverflowError):
        pass
    errors.append(f"{path}: expected {expected}, got {value!r}")
    return None


def _plain(tp, value, schema=None):
    """The YAML form of value, a tp; a config dataclass gives the mapping
    _coerce reads back, and `schema` is one of its sections."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if schema or is_dataclass(tp):
        out = {}
        for key, spec in (schema or _schema(tp, getattr(value, "kind", None))).items():
            if isinstance(spec, dict):
                out[key] = _plain(tp, value, spec)
            elif (field_value := getattr(value, spec.name)) is not None:
                out[key] = _plain(spec.type, field_value)
        return out
    if origin in (list, tuple, frozenset):
        items = sorted(value) if origin is frozenset else value
        return [_plain(args[i] if origin is tuple else args[0], v) for i, v in enumerate(items)]
    return tp(value) if tp in _SCALARS else np.asarray(value, dtype=float).tolist()


# -- default models and graphs ------------------------------------------------


def rotation_process() -> ProcessModel:
    """Slow planar rotation, one turn per 400 steps, with unit process noise:
    the default tracking plant."""
    th = 2.0 * np.pi / 400
    A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    return ProcessModel(A=A, Q=np.eye(2), x0_mean=np.array([0.5, 0.0]), P0=np.eye(2))


def six_node_graph() -> Graph:
    """Default six-node topology; every neighbor of node 2 has degree four, so
    one compromised node leaves every neighborhood majority-intact."""
    return Graph(6, [(1, 2), (2, 3), (1, 3), (1, 5), (1, 6),
                     (3, 4), (3, 5), (4, 5), (5, 6), (4, 6)])


def example1_graph() -> Graph:
    """Eight-node topology where removing {5, 6} splits the graph in two."""
    return Graph(8, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (3, 6), (5, 6),
                     (5, 7), (6, 8), (7, 8)])


# -- presets -------------------------------------------------------------------


def _base(name, steps, seed, graph, alpha=1.8, **kw) -> ScenarioConfig:
    sensors = [SensorModel(C=[[5.0, 0.0], [0.0, 2.0]], R=np.eye(2)) for _ in graph.nodes]
    return ScenarioConfig(name=name, steps=steps, seed=seed,
                          process=rotation_process(), sensors=sensors, graph=graph,
                          trigger=TriggerConfig(alpha=alpha), **kw)


def _sinusoid_injection(onset) -> AttackPlan:
    signal = SignalSpec(kind="sinusoid", offset=2.0, amplitude=10.0, frequency=100.0)
    return AttackPlan(kind="measurement_injection", onset=onset, node=2, signal=signal)


def preset_fig3() -> ScenarioConfig:
    return _base("fig3", steps=400, seed=2301, graph=six_node_graph())


def preset_fig4() -> ScenarioConfig:
    return _base("fig4", steps=400, seed=2402, graph=six_node_graph(), steps_per_second=5.0,
                 attacks=[_sinusoid_injection(100)])


def preset_fig4_replay() -> ScenarioConfig:
    alpha = 1.8
    attack = AttackPlan(kind="replay", onset=100, node=2, upsilon=1.1 * alpha)
    return _base("fig4-replay", steps=1101, seed=2403, graph=six_node_graph(),
                 alpha=alpha, attacks=[attack])


def preset_fig5(sampler: bool = AttackPlan.sampler) -> ScenarioConfig:
    alpha = 1.8
    attack = AttackPlan(kind="non_triggering", onset=100, node=2, phi=0.9 * alpha,
                        sampler=sampler)
    return _base("fig5", steps=1101, seed=2504, graph=six_node_graph(),
                 alpha=alpha, attacks=[attack])


def preset_fig6() -> ScenarioConfig:
    # 20 s onset at 10 steps/s; the attack phase then advances ~3.7 rad per
    # step, so consecutive attack values decorrelate instead of being tracked
    # away by the filter.
    return _base("fig6", steps=700, seed=2605, graph=six_node_graph(),
                 steps_per_second=10.0, filter_mode="monitored",
                 consensus=ConsensusConfig(gamma=0.1), attacks=[_sinusoid_injection(200)])


def preset_fig7() -> ScenarioConfig:
    return _base("fig7", steps=800, seed=2706, graph=six_node_graph(),
                 steps_per_second=10.0, filter_mode="resilient",
                 consensus=ConsensusConfig(gamma=0.1), attacks=[_sinusoid_injection(200)])


def preset_example1() -> ScenarioConfig:
    attacks = [AttackPlan(kind="non_triggering", onset=100, node=i, phi=0.9 * 1.8)
               for i in (5, 6)]
    return _base("example1", steps=400, seed=2807, graph=example1_graph(),
                 attacks=attacks)


_PRESETS = {
    "fig3": preset_fig3,
    "fig4": preset_fig4,
    "fig4-replay": preset_fig4_replay,
    "fig5": preset_fig5,
    "fig6": preset_fig6,
    "fig7": preset_fig7,
    "example1": preset_example1,
}


def list_presets() -> list:
    return sorted(_PRESETS)


def get_preset(name: str) -> ScenarioConfig:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(list_presets())}"
        ) from None
