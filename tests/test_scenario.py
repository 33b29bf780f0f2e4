import copy
import hashlib
import itertools
import json
import math
import os
import re
import string
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from etdkf.attacks import AttackPlan, SignalSpec
from etdkf.cli import main as cli_main
from etdkf.detection import DetectorConfig
from etdkf.errors import ConfigurationError, ValidationError
from etdkf.filtering import TriggerConfig
from etdkf.graphs import Graph
from etdkf.models import ProcessModel, SensorModel
from etdkf.resilience import ResilientConfig
from etdkf.scenario import (ConsensusConfig, ScenarioConfig, _schema, get_preset,
                            list_presets, preset_fig3, preset_fig5, six_node_graph)
from etdkf.simulate import (EDGE_COLUMNS, INT_COLUMNS, SimTrace, TraceTable,
                            compute_metrics, export_csv, load_trace_csv, run_scenario,
                            write_run_dir)

from helpers import edge_series


def tiny_config(**overrides):
    d = {
        "name": "tiny",
        "steps": 30,
        "seed": 7,
        "process": {
            "a": [[1.0, 0.0], [0.0, 1.0]],
            "q": [[1.0, 0.0], [0.0, 1.0]],
            "x0_mean": [0.5, 0.0],
            "p0": [[1.0, 0.0], [0.0, 1.0]],
        },
        "sensors": {"count": 3, "c": [[5.0, 0.0], [0.0, 2.0]],
                    "r": [[1.0, 0.0], [0.0, 1.0]]},
        "graph": {"nodes": 3, "edges": [[1, 2], [2, 3]]},
        "trigger": {"alpha": 1.8},
    }
    d.update(overrides)
    return ScenarioConfig.from_dict(d)


# A detector window that fills within tiny_config's 30 steps.
SMALL_DETECTOR = {"window": 10, "k_nn": 3, "average": 3}

# One constant signal of the wrong length, a replay without upsilon and one
# with an upsilon of the wrong shape: each used to pass `validate` and fail `run`.
BAD_SIGNAL_ATTACKS = [
    {"kind": "measurement_injection", "node": 1, "onset": 5,
     "signal": {"type": "constant", "value": [1.0, 2.0, 3.0]}},
    {"kind": "replay", "node": 2, "onset": 5},
    {"kind": "replay", "node": 3, "onset": 5, "upsilon": [1.0, 1.0, 1.0]},
]


def set_path(d, path, value):
    """Set d[...] at a dotted path such as `attacks.0.signal.amplitud`."""
    *parents, last = [int(key) if key.isdigit() else key for key in path.split(".")]
    for key in parents:
        d = d[key]
    d[last] = value


def fig6_with(**changes):
    d = get_preset("fig6").to_dict()
    for path, value in changes.items():
        set_path(d, path, value)
    return d


# Changes to fig6 and the violations each must give. The first two tables used
# to parse silently: bool() of a non-empty string is True, int() truncates.
BOOL_STRINGS = {
    "beliefs_pinned": ({"filter.beliefs_pinned": "no"},
                       ["filter.beliefs_pinned: expected true or false, got 'no'"]),
    # fig6's attack is a sinusoid injection; the sampler flag is non_triggering's
    "sampler": ({"attacks.0": {"kind": "non_triggering", "node": 2, "onset": 200,
                               "phi": 1.0, "sampler": "false"}},
                ["attacks[0].sampler: expected true or false, got 'false'"]),
    "bound_monitor": ({"bound_monitor": "false"},
                      ["bound_monitor: expected true or false, got 'false'"]),
}
FRACTIONS = {
    "steps": ({"steps": 12.7}, ["steps: expected an integer, got 12.7"]),
    "window": ({"detector.window": 40.9}, ["detector.window: expected an integer, got 40.9"]),
}
UNKNOWN_KEYS = {
    "detectr": ({"detectr": {"window": 10}},
                ["unknown key 'detectr' (did you mean 'detector'?)"]),
    "windw": ({"detector.windw": 10}, ["unknown key 'detector.windw' (did you mean 'window'?)"]),
    "nod": ({"attacks.0.nod": 2}, ["unknown key 'attacks[0].nod' (did you mean 'node'?)"]),
    "amplitud": ({"attacks.0.signal.amplitud": 1.0},
                 ["unknown key 'attacks[0].signal.amplitud' (did you mean 'amplitude'?)"]),
}
SECTION_VIOLATIONS = {
    "sections": ({"detector.k_nn": 99, "resilient.kappa1": 2.0, "trigger.alpha": -1},
                 ["trigger: alpha must be >= 0, got -1.0",
                  "detector: need 1 <= k_nn < window, got k_nn=99, window=40",
                  "resilient: kappa1 must lie in (0,1), got 2.0"]),
    # Several violations of one section are all listed, each under its path.
    "within_sections": ({"detector.k_nn": 0, "detector.average": 0,
                         "detector.reference": "bogus", "resilient.upsilon1": 2,
                         "resilient.kappa1": 5, "resilient.tau": -1, "trigger.alpha": -1},
                        ["trigger: alpha must be >= 0, got -1.0",
                         "detector: need 1 <= k_nn < window, got k_nn=0, window=40",
                         "detector: average window T must be >= 1, got 0",
                         "detector: unknown reference mode 'bogus'",
                         "resilient: upsilon1 must lie in (0,1), got 2.0",
                         "resilient: kappa1 must lie in (0,1), got 5.0",
                         "resilient: tau must be positive, got -1.0"]),
    # The process model lists the shape of each matrix that fails it, and
    # skips the symmetry and PSD check of that matrix.
    "process": ({"process.q": [[1, 0, 0]], "process.p0": [[1]]},
                ["process: Q shape (1, 3) incompatible with n=2",
                 "process: P0 shape (1, 1) incompatible with n=2"]),
    # The delta check needs a window of 2 or more: log(w/(w-1)) has no value
    # at w = 1 and warns at w = 0, so a failed window skips it.
    "window_zero": ({"detector.window": 0},
                    ["detector: need 1 <= k_nn < window, got k_nn=4, window=0"]),
    "window_one": ({"detector.window": 1, "detector.delta": 0.0},
                   ["detector: need 1 <= k_nn < window, got k_nn=4, window=1"]),
}
SCHEMA_VIOLATIONS = {**BOOL_STRINGS, **FRACTIONS, **UNKNOWN_KEYS, **SECTION_VIOLATIONS}


def assert_violations(changes, want):
    with pytest.raises(ValidationError) as err:
        ScenarioConfig.from_dict(fig6_with(**changes))
    assert err.value.violations == want


class TestConfigRoundTrip:
    def test_yaml_round_trip_equivalent(self):
        cfg = get_preset("fig6")
        clone = ScenarioConfig.from_yaml(cfg.to_yaml())
        assert clone.to_dict() == cfg.to_dict()
        clone.validate()

    def test_round_trip_with_attacks(self):
        cfg = get_preset("fig4-replay")
        clone = ScenarioConfig.from_yaml(cfg.to_yaml())
        assert clone.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("name", list_presets())
    def test_config_yaml_bytes_as_pure_python_yaml(self, name):
        """config.yaml is written and read through libyaml where PyYAML has
        it: the bytes are yaml.safe_dump's and the mapping yaml.safe_load's."""
        cfg = get_preset(name)
        text = cfg.to_yaml()
        assert text == yaml.dump(cfg.to_dict(), Dumper=yaml.SafeDumper, sort_keys=False)
        clone = ScenarioConfig.from_yaml(text)
        assert clone.to_dict() == ScenarioConfig.from_dict(
            yaml.load(text, Loader=yaml.SafeLoader)).to_dict() == cfg.to_dict()

    def test_validation_enumerates_all_violations(self):
        cfg = tiny_config()
        cfg.steps = -5
        cfg.sensors = cfg.sensors[:2]
        with pytest.raises(ValidationError) as err:
            cfg.validate()
        assert len(err.value.violations) >= 2

    def test_attack_signal_defects_rejected(self):
        cfg = tiny_config(attacks=BAD_SIGNAL_ATTACKS)
        with pytest.raises(ValidationError) as err:
            cfg.validate()
        assert err.value.violations == [
            "attacks[0]: constant signal dim 3 != 2",
            "attacks[1]: replay attack needs upsilon",
            "attacks[2]: upsilon shape (3,) != (2,)",
        ]
        # a channel signal must match the state dimension; length 1 broadcasts
        ok = tiny_config(attacks=[
            {"kind": "channel_injection", "edge": [1, 2], "onset": 5,
             "signal": {"type": "constant", "value": [1.0]}},
            {"kind": "replay", "node": 2, "onset": 5, "upsilon": 2.0}])
        ok.validate()
        ok.attacks[0].signal.value = [1.0, 2.0, 3.0]
        with pytest.raises(ValidationError, match=r"attacks\[0\]: constant signal dim 3 != 2"):
            ok.validate()

    def test_malformed_input_rejected(self):
        d = tiny_config().to_dict()
        for key in ("trigger", "graph"):
            del d[key]
        with pytest.raises(ValidationError) as err:
            ScenarioConfig.from_dict(d)
        assert err.value.violations == ["missing required key 'graph'",
                                        "missing required key 'trigger'"]
        with pytest.raises(ValidationError, match="a scenario is a mapping, got list"):
            ScenarioConfig.from_yaml("- steps: 10\n")
        null = tiny_config(attacks=[{"kind": "measurement_injection", "node": 1, "onset": 5,
                                     "signal": {"type": "constant", "value": None}}])
        with pytest.raises(ValidationError) as err:
            null.validate()
        assert err.value.violations == ["attacks[0]: constant signal value None is not finite"]

    @pytest.mark.parametrize("case", sorted(BOOL_STRINGS))
    def test_bool_field_rejects_string(self, case):
        assert_violations(*BOOL_STRINGS[case])

    @pytest.mark.parametrize("case", sorted(FRACTIONS))
    def test_int_field_rejects_fraction(self, case):
        assert_violations(*FRACTIONS[case])

    def test_integral_numbers_and_exponent_strings_read(self):
        # An integral float is an integer; PyYAML reads `1e-12` as a string,
        # which a float field accepts.
        cfg = ScenarioConfig.from_yaml(yaml.safe_dump(fig6_with(steps=12.0)).replace(
            "epsilon_d: 1.0e-12", "epsilon_d: 1e-12"))
        assert cfg.steps == 12 and type(cfg.steps) is int
        assert cfg.detector.epsilon_d == 1e-12

    @pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
    def test_unknown_key_rejected_with_suggestion(self, case):
        assert_violations(*UNKNOWN_KEYS[case])

    def test_every_section_violation_listed(self):
        assert_violations(*SECTION_VIOLATIONS["sections"])

    @pytest.mark.parametrize("case", ["within_sections", "window_zero", "window_one", "process"])
    def test_every_violation_within_a_section_listed(self, case):
        assert_violations(*SECTION_VIOLATIONS[case])

    @pytest.mark.parametrize("make, want", [
        (lambda: DetectorConfig(k_nn=0, average=0, delta=0.0),
         ["need 1 <= k_nn < window, got k_nn=0, window=40",
          "average window T must be >= 1, got 0",
          "delta=0.0 must exceed the identical-window baseline log(w/(w-1))=0.02532"]),
        (lambda: ResilientConfig(lambda1=0.0, kappa2=1.0, discounting="bogus"),
         ["lambda1 must lie in (0,1), got 0.0", "kappa2 must lie in (0,1), got 1.0",
          "unknown discounting mode 'bogus'"]),
        # An unknown kind says nothing of the target, which depends on the kind.
        (lambda: AttackPlan(kind="bogus", onset=-1),
         ["unknown attack kind 'bogus'", "onset must be >= 0, got -1"]),
        (lambda: AttackPlan(kind="channel_injection", onset=-2),
         ["onset must be >= 0, got -2", "channel_injection needs edge=(j, i)"]),
        # A failed shape skips that matrix's symmetry and PSD check only.
        (lambda: ProcessModel(np.eye(2), [[1.0, 0.0, 0.0]], [0.0, 0.0, 0.0],
                              [[1.0, 2.0], [0.0, 1.0]]),
         ["Q shape (1, 3) incompatible with n=2", "x0_mean length 3 != n=2",
          "P0 must be symmetric"]),
    ], ids=["detector", "resilient", "unknown_kind", "channel", "process"])
    def test_direct_construction_lists_every_violation(self, make, want):
        with pytest.raises(ConfigurationError) as err:
            make()
        assert isinstance(err.value, ValidationError)
        assert err.value.violations == want

    def test_unknown_kind_and_type_suggested(self):
        d = fig6_with(**{"attacks.0.kind": "replai"})
        d["attacks"].append({"kind": "measurement_injection", "node": 3, "onset": 5,
                             "signal": {"type": "constan", "value": 1.0}})
        with pytest.raises(ValidationError) as err:
            ScenarioConfig.from_dict(d)
        assert err.value.violations == [
            "attacks[0].kind: unknown kind 'replai' (did you mean 'replay'?)",
            "attacks[1].signal.type: unknown type 'constan' (did you mean 'constant'?)"]

    def test_keys_of_another_kind_rejected(self):
        # a sinusoid carries no value, and a measurement injection no phi
        d = fig6_with(**{"attacks.0.signal.value": 1.0, "attacks.0.phi": 0.5})
        with pytest.raises(ValidationError) as err:
            ScenarioConfig.from_dict(d)
        assert err.value.violations == [
            "unknown key 'attacks[0].phi' (expected one of kind, onset, node, signal)",
            "unknown key 'attacks[0].signal.value' (expected one of type, offset, "
            "amplitude, frequency)"]

    @pytest.mark.parametrize("path, value, message", [
        ("sensors.1.c.0.0", math.nan, "sensors[1].c: entry nan is not finite"),
        ("process.x0_mean.1", math.inf, "process.x0_mean: entry inf is not finite"),
        ("process.a.0.0", 10**400, "process.a: int too large to convert to float"),
        ("process.a.0.1", "abc", "process.a: could not convert string to float: 'abc'"),
        ("attacks.0.signal", {"type": "constant", "value": 10**400},
         "attacks[0]: int too large to convert to float"),
    ])
    def test_non_finite_matrices_and_huge_numbers_rejected(self, path, value, message):
        # These used to raise a LinAlgError in `validate` or an OverflowError,
        # or (a non-finite x0_mean) to pass and fill the trace with NaN.
        with pytest.raises(ValidationError) as err:
            ScenarioConfig.from_dict(fig6_with(**{path: value})).validate()
        assert err.value.violations == [message]

    def test_removed_key_ignored(self):
        d = fig6_with(warmup_steps=500)
        assert ScenarioConfig.from_dict(d).to_dict() == get_preset("fig6").to_dict()
        with pytest.raises(ValidationError, match="unknown key 'detector.warmup_steps'"):
            ScenarioConfig.from_dict(fig6_with(**{"detector.warmup_steps": 500}))

    def test_readme_scenario_block_is_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Scenario configuration", 1)[1]
        block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
        assert ScenarioConfig.from_yaml(block).validate() == []
        # Every key the schema reads is listed, those of the commented-out
        # attack kinds included.
        schema_keys = {"count"}
        for cls in (ScenarioConfig, ProcessModel, SensorModel, Graph, TriggerConfig,
                    ConsensusConfig, DetectorConfig, ResilientConfig, AttackPlan, SignalSpec):
            for key, spec in _schema(cls).items():
                schema_keys |= {key} | (set(spec) if isinstance(spec, dict) else set())
        listed = set(re.findall(r"(\w+):", block))
        assert schema_keys <= listed, schema_keys - listed

    def test_preset_round_trip_is_identity(self):
        # to_dict writes every key, so reading it back changes nothing
        for name in list_presets():
            d = get_preset(name).to_dict()
            assert ScenarioConfig.from_dict(d).to_dict() == d

    def test_unobservable_network_rejected(self):
        d = {
            "name": "blind", "steps": 10, "seed": 1,
            "process": {"a": [[1.0, 0.0], [0.0, 1.0]], "q": [[1.0, 0.0], [0.0, 1.0]],
                        "x0_mean": [0.0, 0.0], "p0": [[1.0, 0.0], [0.0, 1.0]]},
            "sensors": {"count": 2, "c": [[1.0, 0.0]], "r": [[1.0]]},
            "graph": {"nodes": 2, "edges": [[1, 2]]},
            "trigger": {"alpha": 1.0},
        }
        cfg = ScenarioConfig.from_dict(d)
        with pytest.raises(ValidationError):
            cfg.validate()


# -- generated scenarios --------------------------------------------------------

_numbers = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_unit = st.floats(0.01, 0.99)
_pair = st.lists(_numbers, min_size=2, max_size=2)


@st.composite
def _signals(draw):
    if draw(st.booleans()):
        return {"type": "constant", "value": draw(st.one_of(_numbers, _pair))}
    return {"type": "sinusoid", "offset": draw(_numbers), "amplitude": draw(_numbers),
            "frequency": draw(_numbers)}


@st.composite
def _attacks(draw, nodes):
    kind = draw(st.sampled_from(["measurement_injection", "channel_injection",
                                 "non_triggering", "replay"]))
    d = {"kind": kind, "onset": draw(st.integers(0, 100))}
    if kind == "channel_injection":
        j = draw(st.integers(1, nodes - 1))
        d["edge"] = [j, j + 1]
    else:
        d["node"] = draw(st.integers(1, nodes))
    if kind in ("measurement_injection", "channel_injection"):
        d["signal"] = draw(_signals())
    elif kind == "non_triggering":
        d.update(phi=draw(st.floats(0.0, 1.7)), sampler=draw(st.booleans()))
    else:
        d["upsilon"] = draw(st.one_of(_numbers, _pair))
    return d


@st.composite
def scenario_dicts(draw):
    """Scenario mappings over every form the schema reads; optional sections
    are sometimes left out, and a present section carries all of its keys."""
    nodes = draw(st.integers(2, 5))
    sensor = {"c": [[5.0, 0.0], [0.0, draw(st.floats(0.5, 3.0))]],
              "r": [[draw(st.floats(0.5, 2.0)), 0.0], [0.0, 1.0]]}
    w = draw(st.integers(3, 50))
    d = {
        "name": draw(st.text(string.ascii_letters + string.digits + " _-", max_size=12)),
        "steps": draw(st.integers(0, 500)),
        "seed": draw(st.integers(0, 2**32)),
        "steps_per_second": draw(st.floats(0.1, 100.0)),
        "process": {"a": [[1.0, 0.0], [0.0, 1.0]], "q": np.eye(2).tolist(),
                    "x0_mean": [0.5, 0.0], "p0": np.eye(2).tolist()},
        "sensors": ({"count": nodes, **sensor} if draw(st.booleans())
                    else [copy.deepcopy(sensor) for _ in range(nodes)]),
        "graph": {"nodes": nodes, "edges": [[j, j + 1] for j in range(1, nodes)]},
        "trigger": {"alpha": draw(st.floats(1.8, 5.0))},
    }
    optional = {
        "consensus": {"mode": draw(st.sampled_from(["scalar", "matrix"])),
                      "gamma": draw(_numbers)},
        "filter": {"mode": draw(st.sampled_from(["nominal", "monitored", "resilient"])),
                   "beliefs_pinned": draw(st.booleans())},
        "detector": {"k_nn": draw(st.integers(1, w - 1)), "window": w,
                     "average": draw(st.integers(1, 20)),
                     "delta": math.log(w / (w - 1)) + draw(st.floats(0.01, 2.0)),
                     "epsilon_d": draw(st.floats(1e-15, 1e-3)),
                     "reference": draw(st.sampled_from(["shadow", "synthetic", "calibrated"]))},
        "resilient": {"upsilon1": draw(_unit), "lambda1": draw(_unit), "kappa1": draw(_unit),
                      "kappa2": draw(_unit), "tau": draw(st.floats(0.1, 100.0)),
                      "discounting": draw(st.sampled_from(["normalized", "unnormalized"]))},
        "attacks": draw(st.lists(_attacks(nodes), max_size=4)),
        "bound_monitor": draw(st.booleans()),
    }
    for key, value in optional.items():
        if draw(st.booleans()):
            d[key] = value
    return d


def mappings(d, path=""):
    """(dotted path, mapping) for d and every mapping nested in it."""
    yield path, d
    for key, value in d.items():
        sub = f"{path}.{key}" if path else key
        items = (value if isinstance(value, list) else [value])
        for i, item in enumerate(items):
            if isinstance(item, dict):
                yield from mappings(item, f"{sub}[{i}]" if isinstance(value, list) else sub)


class TestSchemaProperties:
    @settings(max_examples=60, deadline=None)
    @given(scenario_dicts())
    def test_yaml_round_trip(self, d):
        cfg = ScenarioConfig.from_dict(d)
        assert ScenarioConfig.from_yaml(cfg.to_yaml()).to_dict() == cfg.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(scenario_dicts(), st.data())
    def test_unknown_key_named(self, d, data):
        path, level = data.draw(st.sampled_from(list(mappings(d))))
        # Keys that a mapping at this level could validly hold are never drawn.
        taken = set(level) | set(_schema(ScenarioConfig)) | {"warmup_steps"}
        key = data.draw(st.text(string.ascii_lowercase + "_", min_size=1, max_size=12)
                        .filter(lambda k: k not in taken))
        level[key] = 1
        with pytest.raises(ValidationError) as err:
            ScenarioConfig.from_dict(d)
        name = f"{path}.{key}" if path else key
        assert any(v.startswith(f"unknown key {name!r} (") for v in err.value.violations)


_JUNK = st.sampled_from([None, "x", [], [1], [["a"]], {}, {"a": 1}, -1, 1.5, True,
                         math.nan, math.inf, 10**400])


def leaves(d, path=""):
    """Every dotted path into d, list indices included, in `set_path` form."""
    items = d.items() if isinstance(d, dict) else enumerate(d) if isinstance(d, list) else ()
    for key, value in items:
        sub = f"{path}.{key}" if path else str(key)
        yield sub
        yield from leaves(value, sub)


class TestJunkValues:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(["fig6", "fig4-replay", "fig5", "example1"]), st.data())
    def test_junk_value_gives_validation_error(self, name, data):
        # Whatever a value is replaced with, the scenario either validates or
        # gives a ValidationError: no other exception reaches the caller.
        d = get_preset(name).to_dict()
        set_path(d, data.draw(st.sampled_from(list(leaves(d)))), data.draw(_JUNK))
        try:
            ScenarioConfig.from_dict(d).validate()
        except ValidationError:
            pass


class TestPresets:
    def test_catalog(self):
        names = list_presets()
        assert "fig7" in names
        assert "example1" in names
        assert len(names) >= 6

    def test_all_presets_validate(self):
        for name in list_presets():
            cfg = get_preset(name)
            warnings = cfg.validate()
            assert warnings == [], f"{name}: {warnings}"

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError):
            get_preset("fig99")


@st.composite
def short_runs(draw):
    """Runs of 0-25 steps on small path graphs whose detector windows fill
    within them: every filter mode, consensus mode and reference, the bound
    monitor on or off, and up to two attacks on distinct targets."""
    nodes, w = draw(st.integers(2, 5)), draw(st.integers(3, 8))
    attacks = draw(st.lists(_attacks(nodes), max_size=2,
                            unique_by=lambda a: a.get("node") or tuple(a["edge"])))
    for attack in attacks:
        attack["onset"] = draw(st.integers(0, 25))
    return tiny_config(
        steps=draw(st.integers(0, 25)), seed=draw(st.integers(0, 2**32)),
        graph={"nodes": nodes, "edges": [[j, j + 1] for j in range(1, nodes)]},
        sensors={"count": nodes, "c": [[5.0, 0.0], [0.0, 2.0]], "r": np.eye(2).tolist()},
        filter={"mode": draw(st.sampled_from(["nominal", "monitored", "resilient"]))},
        consensus={"mode": draw(st.sampled_from(["scalar", "matrix"]))},
        detector={"window": w, "k_nn": draw(st.integers(1, w - 1)),
                  "average": draw(st.integers(1, 4)),
                  "reference": draw(st.sampled_from(["shadow", "synthetic", "calibrated"]))},
        bound_monitor=draw(st.booleans()), attacks=attacks)


class TestCsvExport:
    @settings(max_examples=60, deadline=None)
    @given(short_runs())
    def test_csv_round_trip_reproduces_columns_and_metrics(self, cfg):
        trace = run_scenario(cfg)
        with tempfile.TemporaryDirectory() as out:
            paths = export_csv(trace, out)
            loaded = SimTrace(cfg, *load_trace_csv(paths["nodes"], paths["edges"]))
        for header, edge in ((trace.node_columns(), False), (EDGE_COLUMNS, True)):
            for name in header:
                got, want = loaded.column(name, edge), trace.column(name, edge)
                assert got.dtype == want.dtype, name
                assert np.array_equal(got, want, equal_nan=want.dtype.kind == "f"), name
        assert loaded.assumption4_ok == trace.assumption4_ok
        # repr tells every float apart, NaN included
        assert repr(compute_metrics(loaded).to_dict()) == repr(compute_metrics(trace).to_dict())

    def test_empty_trace_header_only(self, tmp_path):
        cfg = tiny_config(steps=0)
        trace = run_scenario(cfg)
        paths = export_csv(trace, str(tmp_path))
        with open(paths["nodes"]) as fh:
            lines = fh.readlines()
        assert len(lines) == 1
        assert lines[0].strip() == ",".join(trace.node_columns())

    def test_round_trip_read_back(self, tmp_path):
        cfg = tiny_config(detector=SMALL_DETECTOR)
        trace = run_scenario(cfg)
        paths = export_csv(trace, str(tmp_path))
        nodes, edges = load_trace_csv(paths["nodes"], paths["edges"])
        for table, header, edge in ((nodes, trace.node_columns(), False),
                                    (edges, EDGE_COLUMNS, True)):
            assert list(table.columns) == header
            for name in header:
                want = trace.column(name, edge).ravel()
                if name == "flag":
                    assert list(table.columns[name]) == want.tolist()
                else:   # 17 significant digits round-trip, NaN included
                    assert table.columns[name].dtype == want.dtype
                    assert np.array_equal(table.columns[name], want,
                                          equal_nan=want.dtype.kind == "f")
        # the detect path ran: finite phi and psi values, read back exactly
        assert np.isfinite(nodes.columns["phi"]).sum() == 3 * 21
        assert np.isfinite(edges.columns["psi"]).sum() == 4 * 21

    def test_schema_hash_pinned(self):
        cfg = tiny_config()
        trace = run_scenario(cfg)
        header = ",".join(trace.node_columns()) + "|" + ",".join(EDGE_COLUMNS)
        digest = hashlib.sha256(header.encode()).hexdigest()[:16]
        assert digest == "af52a90c2668d585"


def cell_by_cell_table(path: str) -> TraceTable:
    """The trace reader before numpy's C parser, kept as an oracle: each line
    split once, each column converted with one np.array(cells, dtype), and a
    ragged line or a bad cell named by its line."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.split(",") for line in fh.read().splitlines()]
    at = next((at for at, row in enumerate(rows) if len(row) != len(header)), None)
    if at is not None:
        raise ValidationError([f"{path}: line {at + 2}: {len(rows[at])} cells, "
                               f"the header has {len(header)}"])
    columns = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    for name, cells in columns.items():
        kind = int if name in INT_COLUMNS else float
        try:
            columns[name] = cells if name == "flag" else np.array(cells, dtype=kind)
        except ValueError:
            for at, cell in enumerate(cells):
                try:
                    kind(cell)
                except ValueError:
                    raise ValidationError([f"{path}: line {at + 2}: cannot read {name} "
                                           f"{cell!r} as {kind.__name__}"]) from None
    return TraceTable(path, columns)


def cell_by_cell_load(cfg, paths):
    """Loading a run directory the way it was done before numpy's C parser:
    the oracle's tables, their rows compared with the grid as tuples."""
    tables = [cell_by_cell_table(paths[key]) for key in ("nodes", "edges")]
    blank = SimTrace(cfg)
    for table, header, edge in zip(tables, (blank.node_columns(), EDGE_COLUMNS), (False, True)):
        if list(table.columns) != header:
            break               # SimTrace names the header
        want = blank._grid(edge)
        got, expected = (list(zip(*(columns[key].tolist() for key in want)))
                         for columns in (table.columns, want))
        if got != expected:
            at, rows = next((at, rows) for at, rows in enumerate(
                itertools.zip_longest(got, expected)) if rows[0] != rows[1])
            found, wanted = (", ".join(map("{} {}".format, want, keys)) if keys
                             else "the end of the file" for keys in rows)
            raise ValidationError([f"{table.path}: line {at + 2}: expected {wanted}; "
                                   f"found {found}"])
    return SimTrace(cfg, *tables)


def loaded_or_error(load):
    """Every stored column of the loaded trace as (dtype, bytes), or the
    ValidationError text; a warning fails the test. Warnings are recorded,
    not raised, so that none turns into an error inside the load."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            trace = load()
        except ValidationError as exc:
            trace = str(exc)
    assert not caught, [str(w.message) for w in caught]
    if isinstance(trace, str):
        return trace
    return {(kind, name): (col.dtype, col.tobytes()) for kind, cols in (
        ("node", trace.node_cols), ("edge", trace.edge_cols), ("step", trace.step_cols))
        for name, col in cols.items()}


# Cells Python's int() and float() read but numpy's parser does not.
STRICTER_CELLS = ["1_0", "\u0661"]


DAMAGES = ["blank_line", "truncated_line", "long_line", "cell", "int_cell", "stricter_cell",
           "delete_row", "duplicate_row", "swap_rows", "crlf", "no_final_newline"]


@st.composite
def damaged_files(draw, lines: list, damage: str):
    """`lines` (a CSV's, with their line ends) after `damage`, at a random
    row (the header, in a file without rows), and whether it wrote a
    stricter cell."""
    lines, rows = list(lines), range(1, len(lines)) or [0]
    header = lines[0].rstrip("\n").split(",")
    at = draw(st.sampled_from(rows))
    cells = lines[at].rstrip("\n").split(",")
    if damage == "blank_line":
        lines.insert(draw(st.integers(0, len(lines))), "\n")
    elif damage == "truncated_line":
        lines[at] = ",".join(cells[:draw(st.integers(0, len(cells) - 1))]) + "\n"
    elif damage == "long_line":
        lines[at] = ",".join(cells + ["0.5"] * draw(st.integers(1, 3))) + "\n"
    elif damage in ("cell", "int_cell", "stricter_cell"):
        numeric = [c for c, name in enumerate(header) if name != "flag"]
        column = draw(st.sampled_from(
            {"cell": range(len(cells)), "stricter_cell": numeric,
             "int_cell": [c for c in numeric if header[c] in INT_COLUMNS]}[damage]))
        cells[column] = draw(st.sampled_from({"cell": ["garbage", "", "#", "1\x1f"],
                                              "int_cell": ["1.0", "nan"],
                                              "stricter_cell": STRICTER_CELLS}[damage]))
        lines[at] = ",".join(cells) + "\n"
    elif damage == "delete_row":
        del lines[at]
    elif damage == "duplicate_row":
        lines.insert(at, lines[at])
    elif damage == "swap_rows":
        other = draw(st.sampled_from(rows))
        lines[at], lines[other] = lines[other], lines[at]
    elif damage == "crlf":
        lines = [line.replace("\n", "\r\n") for line in lines]
    else:
        lines[-1] = lines[-1].rstrip("\n")
    return "".join(lines), damage == "stricter_cell"


class TestTraceReader:
    @settings(max_examples=100, deadline=None)
    @given(short_runs(), st.sampled_from(["nodes", "edges"]), st.sampled_from(DAMAGES),
           st.data())
    def test_damaged_file_reads_as_cell_by_cell(self, cfg, key, damage, data):
        """After one damage to one of a run's CSVs, loading it gives the
        columns the cell-by-cell reader gives, in dtype and bytes, or the same
        error text; a stricter cell is an error either way."""
        with tempfile.TemporaryDirectory() as out:
            paths = export_csv(run_scenario(cfg), out)
            with open(paths[key], newline="") as fh:
                lines = fh.readlines()
            text, stricter = data.draw(damaged_files(lines, damage))
            with open(paths[key], "w", newline="", encoding="utf-8") as fh:
                fh.write(text)
            got = loaded_or_error(lambda: SimTrace(cfg, *load_trace_csv(paths["nodes"],
                                                                        paths["edges"])))
            want = loaded_or_error(lambda: cell_by_cell_load(cfg, paths))
        if stricter:
            assert isinstance(got, str), got
        else:
            assert got == want

    @pytest.mark.parametrize("cell", ["1.5", "1.0", "1e3", "nan", "1\x1f", *STRICTER_CELLS])
    def test_unreadable_int_cell_names_its_line(self, cell, tmp_path):
        """A zeta cell that is not a plain integer is an error naming its
        line, with no warnings filter of the test's own: the text the
        cell-by-cell reader gave, or, for a stricter cell it took, the same
        form."""
        cfg = tiny_config(steps=3)
        paths = export_csv(run_scenario(cfg), str(tmp_path))
        lines = Path(paths["nodes"]).read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[1].split(",")
        cells[2] = cell             # zeta
        lines[1] = ",".join(cells)
        Path(paths["nodes"]).write_text("".join(lines), encoding="utf-8")
        want = f"{paths['nodes']}: line 2: cannot read zeta {cell!r} as int"
        with pytest.raises(ValidationError) as got:
            load_trace_csv(paths["nodes"], paths["edges"])
        assert str(got.value) == want
        if cell in STRICTER_CELLS:
            assert isinstance(cell_by_cell_load(cfg, paths), SimTrace)
        else:
            with pytest.raises(ValidationError) as oracle:
                cell_by_cell_load(cfg, paths)
            assert str(oracle.value) == want


class TestDeterminism:
    def test_same_seed_identical_csv(self, tmp_path):
        cfg = preset_fig3()
        a = export_csv(run_scenario(cfg), str(tmp_path / "a"))
        b = export_csv(run_scenario(preset_fig3()), str(tmp_path / "b"))
        assert open(a["nodes"], "rb").read() == open(b["nodes"], "rb").read()
        assert open(a["edges"], "rb").read() == open(b["edges"], "rb").read()

    def test_zero_signal_attack_is_noop(self, tmp_path):
        graph = {"nodes": 6,
                 "edges": [list(e) for e in sorted(six_node_graph().edges)]}
        sensors = {"count": 6, "c": [[5.0, 0.0], [0.0, 2.0]],
                   "r": [[1.0, 0.0], [0.0, 1.0]]}
        base = tiny_config(graph=graph, sensors=sensors, detector=SMALL_DETECTOR)
        attacked = tiny_config(graph=graph, sensors=sensors, detector=SMALL_DETECTOR, attacks=[
            {"kind": "measurement_injection", "node": 2, "onset": 3,
             "signal": {"type": "constant", "value": [0.0, 0.0]}},
            {"kind": "channel_injection", "edge": [1, 2], "onset": 3,
             "signal": {"type": "constant", "value": [0.0, 0.0]}},
        ])
        base_trace = run_scenario(base)
        assert np.isfinite(base_trace.series("phi", 2)).sum() == 21
        assert np.isfinite(edge_series(base_trace, "psi", 2, 1)).sum() == 21
        pa = export_csv(base_trace, str(tmp_path / "base"))
        pb = export_csv(run_scenario(attacked), str(tmp_path / "zero"))
        assert open(pa["nodes"], "rb").read() == open(pb["nodes"], "rb").read()
        assert open(pa["edges"], "rb").read() == open(pb["edges"], "rb").read()


class TestMetrics:
    def test_hand_built_trace_aggregates(self):
        cfg = tiny_config(steps=5, attacks=[{"kind": "measurement_injection", "node": 2,
                                             "onset": 2,
                                             "signal": {"type": "constant",
                                                        "value": [1.0, 1.0]}}])
        trace = SimTrace(config=cfg)
        # columns are (steps, nodes); node 2 flags H1 from k = 3 on
        trace.node_cols["zeta"][:] = np.array([[1, 0, 1, 0, 1], [1, 1, 1, 1, 1],
                                               [1, 0, 0, 0, 0]]).T
        trace.node_cols["phi"][:] = 0.0
        trace.node_cols["phi"][3:, 1] = cfg.detector.delta + 1.0
        trace.node_cols["err_norm"][:] = np.add.outer(np.arange(5.0), [1.0, 2.0, 3.0])
        assert trace.series("flag", 2).tolist() == ["H0", "H0", "H0", "H1", "H1"]
        rep = compute_metrics(trace)
        assert rep.trigger_rate[1] == pytest.approx(3 / 5)
        assert rep.trigger_rate_pre[1] == pytest.approx(1 / 2)
        assert rep.trigger_rate_post[2] == pytest.approx(1.0)
        assert rep.detection_latency[2] == 1  # first H1 after onset 2 is k=3
        assert rep.false_positive_count == 0
        assert rep.mean_error_pre[3] == pytest.approx((3 + 4) / 2)
        assert rep.silent_nodes == [3]
        # removing node 3 from the path 1-2-3 leaves {1,2} connected
        assert rep.effective_component_count == 1

    def test_all_h0_gives_sentinel_latency(self):
        cfg = tiny_config(steps=4, attacks=[{"kind": "measurement_injection", "node": 1,
                                             "onset": 1,
                                             "signal": {"type": "constant",
                                                        "value": [0.0, 0.0]}}])
        trace = SimTrace(config=cfg)
        trace.node_cols["zeta"][:] = 1
        trace.node_cols["phi"][:] = cfg.detector.delta   # at the threshold: H0
        trace.node_cols["err_norm"][:] = 0.0
        rep = compute_metrics(trace)
        assert rep.detection_latency[1] is None

    def test_latency_counts_from_the_onset_step(self):
        # Node 1 flags from its onset step on; node 2 flags before its onset
        # (a false positive) and again at onset + 2. Latency counts from the
        # onset step itself, so a flag there reads 0; flags before it do not count.
        signal = {"type": "constant", "value": [1.0, 1.0]}
        cfg = tiny_config(steps=6, attacks=[
            {"kind": "measurement_injection", "node": 1, "onset": 2, "signal": signal},
            {"kind": "measurement_injection", "node": 2, "onset": 3, "signal": signal}])
        trace = SimTrace(config=cfg)
        trace.node_cols["zeta"][:] = 1
        trace.node_cols["err_norm"][:] = 0.0
        trace.node_cols["phi"][:] = 0.0
        trace.node_cols["phi"][2:, 0] = np.inf
        trace.node_cols["phi"][[1, 5], 1] = cfg.detector.delta + 1.0
        assert trace.series("flag", 1).tolist() == ["H0", "H0", "H1", "H1", "H1", "H1"]
        rep = compute_metrics(trace)
        assert rep.detection_latency == {1: 0, 2: 2}
        assert rep.false_positive_count == 1   # node 2 at step 1, before the first onset


class TestCli:
    def test_presets_command(self, capsys):
        assert cli_main(["presets"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig3" in out and "fig7" in out

    def test_validate_command(self, capsys):
        assert cli_main(["validate", "--preset", "fig3"]) == 0

    def test_run_and_metrics_round_trip(self, tmp_path, capsys):
        out_dir = str(tmp_path / "run")
        rc = cli_main(["run", "--preset", "fig3", "--steps", "25", "--out", out_dir])
        assert rc == 0
        for fname in ("nodes.csv", "edges.csv", "config.yaml", "metrics.json"):
            assert os.path.exists(os.path.join(out_dir, fname))
        capsys.readouterr()
        assert cli_main(["metrics", "--run-dir", out_dir]) == 0
        recomputed = json.loads(capsys.readouterr().out)
        stored = json.load(open(os.path.join(out_dir, "metrics.json")))
        assert recomputed == stored

    def test_zero_step_metrics_are_strict_json(self, tmp_path, capsys):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out_dir = str(tmp_path / "run")
        assert cli_main(["run", "--preset", "fig3", "--steps", "0", "--out", out_dir]) == 0
        with open(os.path.join(out_dir, "metrics.json")) as fh:
            stored = json.loads(fh.read(), parse_constant=reject)
        assert stored["trigger_rate"]["1"] is None     # NaN: no steps to average
        capsys.readouterr()
        assert cli_main(["metrics", "--run-dir", out_dir]) == 0
        assert json.loads(capsys.readouterr().out, parse_constant=reject) == stored

    @pytest.mark.parametrize("damage, want", [
        ("garbage_cell", "nodes.csv: line 5: cannot read zeta 'garbage' as int"),
        ("garbage_float", "nodes.csv: line 5: cannot read xpred_1 'garbage' as float"),
        ("deleted_row", "nodes.csv: line 5: expected step 1, node 1; found step 1, node 2"),
        ("short_line", "nodes.csv: line 5: 3 cells, the header has 23"),
        ("last_row_gone",
         "edges.csv: line 17: expected step 3, node 3, neighbor 2; found the end of the file"),
        ("extra_row", "nodes.csv: line 14: expected the end of the file; found step 3, node 3"),
    ])
    def test_metrics_on_damaged_run_dir_exits_2(self, damage, want, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert cli_main(["run", "--scenario", str(self._tiny_yaml(tmp_path)), "--steps", "4",
                         "--out", str(out_dir)]) == 0
        name = "edges.csv" if damage == "last_row_gone" else "nodes.csv"
        lines = (out_dir / name).read_text().splitlines(keepends=True)
        if damage.startswith("garbage"):  # zeta, or the last cell, of line 5
            cells = lines[4].rstrip("\n").split(",")
            cells[2 if damage == "garbage_cell" else -1] = "garbage"
            lines[4] = ",".join(cells) + "\n"
        elif damage == "deleted_row":     # step 1, node 1
            del lines[4]
        elif damage == "short_line":
            lines[4] = "1,2,garbage\n"
        elif damage == "last_row_gone":
            del lines[-1]
        else:
            lines.append(lines[-1])
        (out_dir / name).write_text("".join(lines))
        capsys.readouterr()
        assert cli_main(["metrics", "--run-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out_dir}/{want}\n"    # one line, naming the file

    @pytest.mark.parametrize("cell", ["1.5", "1.0", "1e3", "nan", "1_0"])
    def test_metrics_on_non_integral_cell_exits_2(self, cell, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert cli_main(["run", "--scenario", str(self._tiny_yaml(tmp_path)), "--steps", "4",
                         "--out", str(out_dir)]) == 0
        lines = (out_dir / "nodes.csv").read_text().splitlines(keepends=True)
        cells = lines[4].split(",")
        cells[2] = cell             # zeta
        lines[4] = ",".join(cells)
        (out_dir / "nodes.csv").write_text("".join(lines))
        capsys.readouterr()
        assert cli_main(["metrics", "--run-dir", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out_dir}/nodes.csv: line 5: cannot read zeta '{cell}' as int\n"

    @staticmethod
    def _tiny_yaml(tmp_path):
        spath = tmp_path / "scn.yaml"
        spath.write_text(tiny_config().to_yaml())
        return spath

    def test_run_scenario_file(self, tmp_path):
        cfg = tiny_config()
        spath = tmp_path / "scn.yaml"
        spath.write_text(cfg.to_yaml())
        rc = cli_main(["run", "--scenario", str(spath), "--out",
                       str(tmp_path / "out")])
        assert rc == 0

    def test_invalid_scenario_exits_nonzero(self, tmp_path):
        cfg = tiny_config()
        d = cfg.to_dict()
        d["graph"]["edges"] = []
        d["sensors"] = d["sensors"][:1] if isinstance(d["sensors"], list) else d["sensors"]
        bad = tmp_path / "bad.yaml"
        import yaml
        d["steps"] = -1
        bad.write_text(yaml.safe_dump(d))
        assert cli_main(["validate", "--scenario", str(bad)]) == 2

    def test_missing_file_exits_nonzero(self):
        assert cli_main(["run", "--scenario", "/nonexistent.yaml",
                         "--out", "/tmp/x"]) == 3

    def test_bad_attack_signals_exit_2(self, tmp_path, capsys):
        spath = tmp_path / "bad.yaml"
        spath.write_text(tiny_config(attacks=BAD_SIGNAL_ATTACKS).to_yaml())
        assert cli_main(["validate", "--scenario", str(spath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "constant signal dim 3 != 2" in err
        assert cli_main(["run", "--scenario", str(spath), "--out",
                         str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["missing_keys", "top_level_list", "null_signal",
                                      "bad_syntax"])
    def test_malformed_yaml_exits_2(self, case, tmp_path, capsys):
        import yaml
        d = tiny_config().to_dict()
        if case == "bad_syntax":
            text = yaml.safe_dump(d).replace("steps:", "steps: [1,", 1)
            want = "not valid YAML: "
        elif case == "missing_keys":
            for key in ("trigger", "process", "graph", "sensors", "steps"):
                del d[key]
            text, want = yaml.safe_dump(d), "missing required key 'steps'"
        elif case == "top_level_list":
            text, want = yaml.safe_dump([d]), "a scenario is a mapping, got list"
        else:
            d["attacks"] = [{"kind": "measurement_injection", "node": 1, "onset": 5,
                             "signal": {"type": "constant", "value": None}}]
            text, want = yaml.safe_dump(d), "constant signal value None is not finite"
        spath = tmp_path / "bad.yaml"
        spath.write_text(text)
        for argv in (["validate", "--scenario", str(spath)],
                     ["run", "--scenario", str(spath), "--out", str(tmp_path / "out")]):
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and want in err
            assert len(err.strip().splitlines()) == 1
        if case == "missing_keys":
            assert all(f"missing required key {key!r}" in err
                       for key in ("trigger", "process", "graph", "sensors", "steps"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", sorted(SCHEMA_VIOLATIONS))
    def test_schema_violations_exit_2(self, case, tmp_path, capsys):
        changes, want = SCHEMA_VIOLATIONS[case]
        spath = tmp_path / "bad.yaml"
        spath.write_text(yaml.safe_dump(fig6_with(**changes), sort_keys=False))
        for argv in (["validate", "--scenario", str(spath)],
                     ["run", "--scenario", str(spath), "--out", str(tmp_path / "out")]):
            assert cli_main(argv) == 2
            assert capsys.readouterr().err == "error: " + "; ".join(want) + "\n"
        assert not (tmp_path / "out").exists()

    def test_run_directory_with_removed_key_loads(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert cli_main(["run", "--preset", "fig3", "--steps", "5", "--out", str(out_dir)]) == 0
        cpath = out_dir / "config.yaml"
        cpath.write_text(cpath.read_text() + "warmup_steps: 500\n")
        capsys.readouterr()
        assert cli_main(["metrics", "--run-dir", str(out_dir)]) == 0
        stored = json.loads((out_dir / "metrics.json").read_text())
        assert json.loads(capsys.readouterr().out) == stored
        assert cli_main(["run", "--scenario", str(cpath), "--out", str(tmp_path / "again")]) == 0

    def test_negative_seed_in_scenario_exits_2(self, tmp_path, capsys):
        d = get_preset("fig3").to_dict()
        d["seed"] = -1
        spath = tmp_path / "negative.yaml"
        spath.write_text(yaml.safe_dump(d, sort_keys=False))
        for argv in (["validate", "--scenario", str(spath)],
                     ["run", "--scenario", str(spath), "--out", str(tmp_path / "out")]):
            assert cli_main(argv) == 2
            assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli_main(["run", "--preset", "fig3", "--seed", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_numerical_failure_exits_4(self, tmp_path, capsys):
        # Two identical rows in C and a negligible R: the innovation covariance
        # R + C P C^T rounds to an exactly singular matrix at the first gain.
        cfg = tiny_config(sensors=[{"c": [[5.0, 0.0], [0.0, 2.0]], "r": np.eye(2).tolist()},
                                   {"c": [[1.0, 0.0], [1.0, 0.0]],
                                    "r": (1e-20 * np.eye(2)).tolist()},
                                   {"c": [[5.0, 0.0], [0.0, 2.0]], "r": np.eye(2).tolist()}])
        cfg.validate()
        spath = tmp_path / "singular.yaml"
        spath.write_text(cfg.to_yaml())
        rc = cli_main(["run", "--scenario", str(spath), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: numerical failure: singular innovation covariance at node 2")
        assert len(err.strip().splitlines()) == 1

    def test_numerical_failure_names_a_shared_sensors_first_node(self, tmp_path, capsys):
        # Nodes 1, 2 and 4 share the good sensor, nodes 3 and 5 the singular
        # one: the recursion runs once per sensor model and still names node 3.
        good = {"c": [[5.0, 0.0], [0.0, 2.0]], "r": np.eye(2).tolist()}
        bad = {"c": [[1.0, 0.0], [1.0, 0.0]], "r": (1e-20 * np.eye(2)).tolist()}
        cfg = tiny_config(sensors=[good, good, bad, good, bad],
                          graph={"nodes": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]})
        cfg.validate()
        spath = tmp_path / "singular.yaml"
        spath.write_text(cfg.to_yaml())
        rc = cli_main(["run", "--scenario", str(spath), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: numerical failure: singular innovation covariance at node 3")
        assert len(err.strip().splitlines()) == 1

    def test_collapsing_matrix_consensus_exits_4(self, tmp_path, capsys):
        # A stable plant with q = 0: P_prior collapses towards 0 until the
        # matrix consensus gain's pinv overflows, which used to end the run
        # with a LinAlgError traceback after `validate` had passed it.
        cfg = tiny_config(steps=300, graph={"nodes": 2, "edges": [[1, 2]]},
                          process={"a": [[0.1005, -0.1056], [0.512, 0.0839]],
                                   "q": [[0.0, 0.0], [0.0, 0.0]], "x0_mean": [0.5, 0.0],
                                   "p0": [[1.0, 0.0], [0.0, 1.0]]},
                          sensors={"count": 2, "c": [[1.0, 0.0]], "r": [[1.0]]},
                          consensus={"mode": "matrix", "gamma": 0.5})
        spath = tmp_path / "collapsing.yaml"
        spath.write_text(cfg.to_yaml())
        assert cli_main(["validate", "--scenario", str(spath)]) == 0
        capsys.readouterr()
        rc = cli_main(["run", "--scenario", str(spath), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: numerical failure: the matrix consensus gain could "
                              "not be computed at step 256 ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestReferenceModes:
    def test_synthetic_reference_runs_and_detects(self):
        cfg = tiny_config(detector={"k_nn": 4, "window": 10, "average": 3,
                                    "delta": 0.5, "reference": "synthetic"},
                          steps=40)
        trace = run_scenario(cfg)
        phi = trace.series("phi", 1)
        assert np.isfinite(phi[-1])

    def test_calibrated_reference_runs(self):
        cfg = tiny_config(detector={"k_nn": 4, "window": 10, "average": 3,
                                    "delta": 0.5, "reference": "calibrated"},
                          steps=40)
        trace = run_scenario(cfg)
        assert np.isfinite(trace.series("phi", 2)[-1])

    def test_synthetic_mode_deterministic(self, tmp_path):
        cfg = tiny_config(detector={"k_nn": 4, "window": 10, "average": 3,
                                    "delta": 0.5, "reference": "synthetic"},
                          steps=40)
        a = export_csv(run_scenario(cfg), str(tmp_path / "a"))
        b = export_csv(run_scenario(cfg), str(tmp_path / "b"))
        assert open(a["nodes"], "rb").read() == open(b["nodes"], "rb").read()


class TestMixedChannelCounts:
    @pytest.mark.parametrize("mode", ["nominal", "monitored", "resilient"])
    def test_unequal_channel_counts_run(self, mode):
        # Node 2 measures one channel, its neighbors two: edges between them
        # have no detector window and keep trust 1.
        sensors = [{"c": [[5.0, 0.0], [0.0, 2.0]], "r": np.eye(2).tolist()},
                   {"c": [[1.0, 1.0]], "r": [[1.0]]},
                   {"c": [[5.0, 0.0], [0.0, 2.0]], "r": np.eye(2).tolist()}]
        cfg = tiny_config(sensors=sensors, filter={"mode": mode}, detector=SMALL_DETECTOR)
        cfg.validate()
        trace = run_scenario(cfg)
        assert trace.column("zeta").shape == (30, 3)
        for i, j in ((1, 2), (2, 1), (2, 3), (3, 2)):
            assert np.all(edge_series(trace, "sigma", i, j) == 1.0)
            assert np.all(np.isnan(edge_series(trace, "psi", i, j)))
        assert np.isfinite(trace.series("phi", 2)[-1])
        assert np.isfinite(trace.series("err_norm", 2)).all()


class TestMatrixConsensus:
    def test_matrix_gain_mode_runs(self):
        cfg = tiny_config(consensus={"mode": "matrix", "gamma": 0.05}, steps=30)
        trace = run_scenario(cfg)
        err = trace.series("err_norm", 1)
        assert np.isfinite(err).all()
        assert err[5:].max() < 50.0


class TestRunDirectory:
    def test_adjacency_export(self, tmp_path):
        cfg = tiny_config(steps=3)
        paths = write_run_dir(run_scenario(cfg), str(tmp_path))
        text = open(paths["adjacency"]).read().splitlines()
        assert text[0] == "node,1,2,3"
        assert text[1] == "1,0,1,0"
        assert text[2] == "2,1,0,1"


class TestWarnings:
    def test_assumption4_violation_warns_not_aborts(self):
        # path graph: compromising node 2 starves node 1 and 3 of majorities
        cfg = tiny_config(
            filter={"mode": "resilient"},
            attacks=[{"kind": "measurement_injection", "node": 2, "onset": 5,
                      "signal": {"type": "constant", "value": [1.0, 1.0]}}])
        warnings = cfg.validate()
        assert any("majority-intact" in w for w in warnings)

    def test_window_longer_than_run_warns(self):
        cfg = tiny_config()
        w = cfg.detector.window
        for steps, warned in ((w - 1, True), (w, False), (0, False)):
            cfg.steps = steps
            assert any("detector window" in m for m in cfg.validate()) == warned, steps
        cfg.steps = w - 1
        trace = run_scenario(cfg)
        assert np.all(np.isnan(trace.series("phi", 1)))
        assert any("detector window" in m for m in trace.warnings)

    def test_sampler_fallbacks_counted_per_run(self):
        # Every run reports its own count; an earlier run in the same process
        # does not silence a later one.
        cfg = preset_fig5(sampler=True)
        cfg.filter_mode = "monitored"
        cfg.detector.reference = "synthetic"
        cfg.steps, cfg.attacks[0].onset = 60, 40
        for _ in range(2):
            lines = [w for w in run_scenario(cfg).warnings if "sampler" in w]
            assert lines == ["non-triggering sampler fell back on 20 of 20 steps"]
        cfg.attacks[0].sampler = False
        assert not any("sampler" in w for w in run_scenario(cfg).warnings)

    @pytest.mark.parametrize("mode", ["nominal", "monitored", "resilient"])
    def test_sampler_falls_back_once_the_predicted_output_overflows(self, mode):
        # A 1e300 injection into the attacked node's channel from node 1
        # overflows ||C x_pred||: the sampler's interval is then too wide for
        # a uniform draw, so every sampler step takes the direct construction.
        cfg = preset_fig5(sampler=True)
        cfg.filter_mode, cfg.steps = mode, 120
        cfg.attacks.append(AttackPlan(kind="channel_injection", edge=(1, 2), onset=50,
                                      signal=SignalSpec(value=1e300)))
        lines = [w for w in run_scenario(cfg).warnings if "sampler" in w]
        assert lines == ["non-triggering sampler fell back on 20 of 20 steps"]

    def test_onset_beyond_run_warns(self):
        cfg = tiny_config(attacks=[{"kind": "measurement_injection", "node": 2,
                                    "onset": 999,
                                    "signal": {"type": "constant", "value": [1.0, 1.0]}}])
        warnings = cfg.validate()
        assert any("onset" in w for w in warnings)
