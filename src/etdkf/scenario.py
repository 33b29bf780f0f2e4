"""Scenario configuration: YAML schema, validation, and shipped presets."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

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
REQUIRED_KEYS = ("steps", "process", "sensors", "graph", "trigger")
CONSENSUS_MODES = ("scalar", "matrix")


@dataclass
class ConsensusConfig:
    mode: str = "scalar"
    gamma: float = 0.05

    def __post_init__(self):
        if self.mode not in CONSENSUS_MODES:
            raise ConfigurationError(f"consensus mode must be one of {CONSENSUS_MODES}")


@dataclass
class ScenarioConfig:
    """Everything one deterministic run needs; one tick equals one step k."""

    name: str
    steps: int
    seed: int
    process: ProcessModel
    sensors: list
    graph: Graph
    trigger: TriggerConfig
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    filter_mode: str = "nominal"
    attacks: list = field(default_factory=list)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    resilient: ResilientConfig = field(default_factory=ResilientConfig)
    steps_per_second: float = 1.0
    beliefs_pinned: bool = False
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
        if self.filter_mode not in FILTER_MODES:
            errors.append(f"filter mode {self.filter_mode!r} not in {FILTER_MODES}")
        if len(self.sensors) != N:
            errors.append(f"{len(self.sensors)} sensors for {N} graph nodes")
        for idx, s in enumerate(self.sensors, start=1):
            if s.n != n:
                errors.append(f"sensor {idx}: C has {s.n} columns, state dim is {n}")
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
            label = f"attack[{idx}]"
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
                except (TypeError, ValueError) as exc:
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
            compromised = {p.node for p in self.attacks if p.node is not None}
            status = assumption4_satisfied(self.graph, compromised)
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
        def mat(m):
            return np.asarray(m, dtype=float).tolist()

        d = {
            "name": self.name,
            "steps": int(self.steps),
            "seed": int(self.seed),
            "steps_per_second": float(self.steps_per_second),
            "process": {
                "a": mat(self.process.A),
                "q": mat(self.process.Q),
                "x0_mean": list(map(float, self.process.x0_mean)),
                "p0": mat(self.process.P0),
            },
            "sensors": [{"c": mat(s.C), "r": mat(s.R)} for s in self.sensors],
            "graph": {
                "nodes": self.graph.node_count,
                "edges": [list(e) for e in self.graph.sorted_edges()],
            },
            "trigger": {"alpha": float(self.trigger.alpha)},
            "consensus": {"mode": self.consensus.mode, "gamma": float(self.consensus.gamma)},
            "filter": {"mode": self.filter_mode, "beliefs_pinned": bool(self.beliefs_pinned)},
            "detector": {
                "k_nn": self.detector.k_nn,
                "window": self.detector.window,
                "average": self.detector.average,
                "delta": self.detector.delta,
                "epsilon_d": self.detector.epsilon_d,
                "reference": self.detector.reference,
            },
            "resilient": {
                "upsilon1": self.resilient.upsilon1,
                "lambda1": self.resilient.lambda1,
                "kappa1": self.resilient.kappa1,
                "kappa2": self.resilient.kappa2,
                "tau": self.resilient.tau,
                "discounting": self.resilient.discounting,
            },
            "attacks": [_plan_to_dict(p) for p in self.attacks],
        }
        if self.bound_monitor is not None:
            d["bound_monitor"] = bool(self.bound_monitor)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        """Parse the mapping form; input of the wrong shape raises ValidationError."""
        if not isinstance(d, dict):
            raise ValidationError([f"a scenario is a mapping, got {type(d).__name__}"])
        missing = [key for key in REQUIRED_KEYS if key not in d]
        if missing:
            raise ValidationError([f"missing required key {key!r}" for key in missing])
        try:
            return cls._parse(copy.deepcopy(d))
        except ConfigurationError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError([f"malformed scenario: {type(exc).__name__}: {exc}"]) from None

    @classmethod
    def _parse(cls, d: dict) -> "ScenarioConfig":
        proc = d["process"]
        process = ProcessModel(A=proc["a"], Q=proc["q"],
                               x0_mean=proc["x0_mean"], P0=proc["p0"])
        sensors_cfg = d["sensors"]
        if isinstance(sensors_cfg, dict):
            count = int(sensors_cfg["count"])
            sensors = [SensorModel(C=sensors_cfg["c"], R=sensors_cfg["r"]) for _ in range(count)]
        else:
            sensors = [SensorModel(C=s["c"], R=s["r"]) for s in sensors_cfg]
        graph = Graph(d["graph"]["nodes"], [tuple(e) for e in d["graph"]["edges"]])
        det = d.get("detector", {})
        res = d.get("resilient", {})
        cons = d.get("consensus", {})
        filt = d.get("filter", {})
        return cls(
            name=d.get("name", "scenario"),
            steps=int(d["steps"]),
            seed=int(d.get("seed", 0)),
            process=process,
            sensors=sensors,
            graph=graph,
            trigger=TriggerConfig(alpha=float(d["trigger"]["alpha"])),
            consensus=ConsensusConfig(mode=cons.get("mode", "scalar"),
                                      gamma=float(cons.get("gamma", 0.05))),
            filter_mode=filt.get("mode", "nominal"),
            beliefs_pinned=bool(filt.get("beliefs_pinned", False)),
            attacks=[_plan_from_dict(p) for p in d.get("attacks", [])],
            detector=DetectorConfig(
                k_nn=int(det.get("k_nn", 4)),
                window=int(det.get("window", 40)),
                average=int(det.get("average", 10)),
                delta=float(det.get("delta", 0.5)),
                epsilon_d=float(det.get("epsilon_d", 1e-12)),
                reference=det.get("reference", "shadow"),
            ),
            resilient=ResilientConfig(
                upsilon1=float(res.get("upsilon1", 0.5)),
                lambda1=float(res.get("lambda1", 0.5)),
                kappa1=float(res.get("kappa1", 0.5)),
                kappa2=float(res.get("kappa2", 0.5)),
                tau=float(res.get("tau", 10.0)),
                discounting=res.get("discounting", "normalized"),
            ),
            steps_per_second=float(d.get("steps_per_second", 1.0)),
            bound_monitor=d.get("bound_monitor"),
        )

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=False)

    @classmethod
    def from_yaml(cls, text: str) -> "ScenarioConfig":
        try:
            d = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValidationError([f"not valid YAML: {exc}"]) from None
        return cls.from_dict(d)


def _plan_to_dict(p: AttackPlan) -> dict:
    d = {"kind": p.kind, "onset": int(p.onset)}
    if p.node is not None:
        d["node"] = int(p.node)
    if p.edge is not None:
        d["edge"] = list(p.edge)
    if p.kind in ("measurement_injection", "channel_injection"):
        s = {"type": p.signal.kind}
        if p.signal.kind == "constant":
            v = np.asarray(p.signal.value, dtype=float).reshape(-1)
            s["value"] = [float(x) for x in v]
        else:
            s.update(offset=float(p.signal.offset), amplitude=float(p.signal.amplitude),
                     frequency=float(p.signal.frequency))
        d["signal"] = s
    if p.kind == "non_triggering":
        d["phi"] = float(p.phi)
        d["sampler"] = bool(p.sampler)
    if p.kind == "replay" and p.upsilon is not None:
        u = p.upsilon
        d["upsilon"] = ([float(x) for x in np.asarray(u, float).reshape(-1)]
                        if np.ndim(u) else float(u))
    return d


def _plan_from_dict(d: dict) -> AttackPlan:
    sig = d.get("signal", {})
    spec = SignalSpec(
        kind=sig.get("type", "constant"),
        value=sig.get("value", 0.0),
        offset=float(sig.get("offset", 0.0)),
        amplitude=float(sig.get("amplitude", 0.0)),
        frequency=float(sig.get("frequency", 0.0)),
    )
    return AttackPlan(
        kind=d["kind"],
        onset=int(d["onset"]),
        node=d.get("node"),
        edge=tuple(d["edge"]) if d.get("edge") else None,
        signal=spec,
        phi=float(d.get("phi", 0.0)),
        sampler=bool(d.get("sampler", False)),
        upsilon=d.get("upsilon"),
    )


# -- default models and graphs ------------------------------------------------


def rotation_process(n_steps_per_turn: int = 400) -> ProcessModel:
    """Slow planar rotation with unit process noise, the default tracking plant."""
    th = 2.0 * np.pi / n_steps_per_turn
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

_SINUSOID = dict(type="sinusoid", offset=2.0, amplitude=10.0, frequency=100.0)


def _base(name, steps, seed, graph, mode="nominal", alpha=1.8, gamma=0.05,
          detector=None, attacks=(), sps=1.0, **kw) -> ScenarioConfig:
    N = graph.node_count
    det = detector or {}
    return ScenarioConfig.from_dict({
        "name": name,
        "steps": steps,
        "seed": seed,
        "steps_per_second": sps,
        "process": {
            "a": rotation_process().A.tolist(),
            "q": np.eye(2).tolist(),
            "x0_mean": [0.5, 0.0],
            "p0": np.eye(2).tolist(),
        },
        "sensors": {"count": N, "c": [[5.0, 0.0], [0.0, 2.0]], "r": np.eye(2).tolist()},
        "graph": {"nodes": N, "edges": [list(e) for e in graph.sorted_edges()]},
        "trigger": {"alpha": alpha},
        "consensus": {"mode": "scalar", "gamma": gamma},
        "filter": {"mode": mode},
        "detector": det,
        "attacks": list(attacks),
        **kw,
    })


def preset_fig3() -> ScenarioConfig:
    return _base("fig3", steps=400, seed=2301, graph=six_node_graph())


def preset_fig4() -> ScenarioConfig:
    attack = {"kind": "measurement_injection", "node": 2, "onset": 100,
              "signal": dict(_SINUSOID)}
    return _base("fig4", steps=400, seed=2402, graph=six_node_graph(),
                 attacks=[attack], sps=5.0)


def preset_fig4_replay() -> ScenarioConfig:
    alpha = 1.8
    attack = {"kind": "replay", "node": 2, "onset": 100, "upsilon": 1.1 * alpha}
    return _base("fig4-replay", steps=1101, seed=2403, graph=six_node_graph(),
                 alpha=alpha, attacks=[attack])


def preset_fig5(sampler: bool = False) -> ScenarioConfig:
    alpha = 1.8
    attack = {"kind": "non_triggering", "node": 2, "onset": 100,
              "phi": 0.9 * alpha, "sampler": sampler}
    return _base("fig5", steps=1101, seed=2504, graph=six_node_graph(),
                 alpha=alpha, attacks=[attack])


def preset_fig6() -> ScenarioConfig:
    # 20 s onset at 10 steps/s; the attack phase then advances ~3.7 rad per
    # step, so consecutive attack values decorrelate instead of being tracked
    # away by the filter.
    attack = {"kind": "measurement_injection", "node": 2, "onset": 200,
              "signal": dict(_SINUSOID)}
    det = {"window": 40, "average": 10, "k_nn": 4, "delta": 0.5, "reference": "shadow"}
    return _base("fig6", steps=700, seed=2605, graph=six_node_graph(),
                 mode="monitored", gamma=0.1, detector=det, attacks=[attack], sps=10.0)


def preset_fig7() -> ScenarioConfig:
    attack = {"kind": "measurement_injection", "node": 2, "onset": 200,
              "signal": dict(_SINUSOID)}
    det = {"window": 40, "average": 10, "k_nn": 4, "delta": 0.5, "reference": "shadow"}
    return _base("fig7", steps=800, seed=2706, graph=six_node_graph(),
                 mode="resilient", gamma=0.1, detector=det, attacks=[attack], sps=10.0)


def preset_example1() -> ScenarioConfig:
    attacks = [
        {"kind": "non_triggering", "node": 5, "onset": 100, "phi": 0.9 * 1.8},
        {"kind": "non_triggering", "node": 6, "onset": 100, "phi": 0.9 * 1.8},
    ]
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
