"""Pinned trace digests for engine paths no preset runs.

Every preset uses scalar consensus, equal channel counts and a shadow
reference, so `golden_sha256.json` never covers matrix consensus over unequal
degrees, a one-channel sensor among two-channel ones, or a fresh-draw
reference. These three small generated scenarios do; their `nodes.csv` and
`edges.csv` digests are pinned under the same numpy/platform caveat as the
golden presets (see criterion 12). The last two tests give fig6 a sensor of
three channels on a two-dimensional state: it runs without the bound monitor
and fails validation with it.
"""

import hashlib

import numpy as np
import pytest

from etdkf.cli import main as cli_main
from etdkf.errors import ValidationError
from etdkf.scenario import ScenarioConfig, example1_graph, get_preset, six_node_graph
from etdkf.simulate import export_csv, run_scenario

pytestmark = pytest.mark.bits

TH = 2.0 * np.pi / 400
BASE = {
    "steps": 60,
    "steps_per_second": 10.0,
    "process": {"a": [[np.cos(TH), -np.sin(TH)], [np.sin(TH), np.cos(TH)]],
                "q": [[1.0, 0.0], [0.0, 1.0]], "x0_mean": [0.5, 0.0],
                "p0": [[1.0, 0.0], [0.0, 1.0]]},
    "trigger": {"alpha": 1.8},
    "consensus": {"mode": "matrix", "gamma": 0.1},
    "detector": {"window": 10, "k_nn": 3, "average": 5},
}
TWO = {"c": [[5.0, 0.0], [0.0, 2.0]], "r": [[1.0, 0.0], [0.0, 1.0]]}
ONE = {"c": [[5.0, 0.0]], "r": [[1.0]]}
SINUSOID = {"type": "sinusoid", "offset": 2.0, "amplitude": 10.0, "frequency": 100.0}


def ring_with_chords(n: int) -> list:
    ring = {(min(a, a % n + 1), max(a, a % n + 1)) for a in range(1, n + 1)}
    return sorted(ring | {(1, 4), (2, 8), (3, 9), (5, 11), (6, 12), (2, 6)})


SCENARIOS = {
    # Matrix consensus on unequal degrees (2 to 4), resilient, bound monitor,
    # shadow reference, a measurement and a channel attack.
    "ring12-chords": {
        "seed": 71, "graph": {"nodes": 12, "edges": [list(e) for e in ring_with_chords(12)]},
        "sensors": [TWO] * 12, "filter": {"mode": "resilient"}, "bound_monitor": True,
        "attacks": [
            {"kind": "measurement_injection", "node": 2, "onset": 25, "signal": SINUSOID},
            {"kind": "channel_injection", "edge": [4, 3], "onset": 30,
             "signal": {"type": "constant", "value": [2.0, -1.0]}}],
    },
    # One p = 1 sensor among p = 2 sensors, synthetic reference, the
    # non-triggering sampler and a replay on the one-channel node.
    "mixed-p-synthetic": {
        "seed": 72,
        "graph": {"nodes": 6, "edges": [list(e) for e in sorted(six_node_graph().edges)]},
        "sensors": [TWO, TWO, ONE, TWO, TWO, TWO], "filter": {"mode": "resilient"},
        "detector": {**BASE["detector"], "reference": "synthetic"},
        "attacks": [
            {"kind": "non_triggering", "node": 2, "onset": 30, "phi": 1.62, "sampler": True},
            {"kind": "replay", "node": 3, "onset": 40, "upsilon": 1.98}],
    },
    # Calibrated reference with the bound monitor in monitored mode (beliefs
    # tracked, not used by the update) and two attacks.
    "example1-calibrated": {
        "seed": 73,
        "graph": {"nodes": 8, "edges": [list(e) for e in sorted(example1_graph().edges)]},
        "sensors": [TWO] * 8, "filter": {"mode": "monitored"},
        "bound_monitor": True,
        "detector": {**BASE["detector"], "reference": "calibrated"},
        "attacks": [
            {"kind": "non_triggering", "node": 5, "onset": 20, "phi": 1.62},
            {"kind": "channel_injection", "edge": [6, 3], "onset": 35, "signal": SINUSOID}],
    },
}

# Recorded at commit 4fd5b6c, before the engine moved to stacked arrays.
DIGESTS = {
    "ring12-chords": {
        "nodes": "75182490e0017ebaadcb8002e04df3ff15cb54647e23cfca253bb23c9123c877",
        "edges": "3bba810a01c1a7e38b51732ca42ec1d7d3130d0ab6e9061b8ce6eb7a91d888d4",
    },
    "mixed-p-synthetic": {
        "nodes": "085cf02cfd4e833398ef54101cc8421dc307e2b658f7a4804f959cf4b41ee1cf",
        "edges": "3cc18a9a5ffb4376328e8819ebcfc9530992d81d98b109bc7f7c04a8df0f44f3",
    },
    "example1-calibrated": {
        "nodes": "da318e32a92d7242733ceea897dfd21e03dd96138d82f39acc17c15061f5e43a",
        "edges": "0594a3de471c43b328d711de078d657ca82cb8e59688540b2f8dda990c90a3a2",
    },
}


def scenario(name: str) -> ScenarioConfig:
    return ScenarioConfig.from_dict({**BASE, "name": name, **SCENARIOS[name]})


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_generated_scenario_digests(name, tmp_path):
    paths = export_csv(run_scenario(scenario(name)), str(tmp_path))
    got = {key: hashlib.sha256(open(paths[key], "rb").read()).hexdigest()
           for key in ("nodes", "edges")}
    assert got == DIGESTS[name]


def test_calibrated_reference_with_one_channel_sensor_runs():
    # The twin's sample covariance of a one-channel sensor is 1 x 1; np.cov
    # returns it as a 0-d array, which the reference draw used to reject.
    cfg = ScenarioConfig.from_dict({**BASE, "name": "p1-calibrated",
                                    **SCENARIOS["example1-calibrated"],
                                    "sensors": [TWO] * 6 + [ONE, TWO]})
    trace = run_scenario(cfg)
    assert trace.column("zeta").shape == (cfg.steps, 8)
    assert np.isfinite(trace.series("phi", 7)[-1])


def three_channel_fig6(**changes) -> ScenarioConfig:
    # fig6 (monitored, shadow reference: a twin pass) with node 4 measuring
    # three channels of the two-dimensional state.
    d = {**get_preset("fig6").to_dict(), "steps": 50, **changes}
    d["sensors"][3] = {"c": [[5.0, 0.0], [0.0, 2.0], [1.0, 1.0]], "r": np.eye(3).tolist()}
    return ScenarioConfig.from_dict(d)


def test_three_channel_sensor_runs_without_bound_monitor():
    # The twin pass used to add the 2-vector state increment to the 3-vector
    # noise draw for the bound monitor's B, which this run does not use.
    cfg = three_channel_fig6()
    assert not cfg.bound_monitor_enabled()
    trace = run_scenario(cfg)
    assert np.isfinite(trace.series("err_norm", 4)).all()
    assert np.isfinite(trace.series("phi", 4)[-1])


def test_three_channel_sensor_with_bound_monitor_is_invalid(tmp_path, capsys):
    cfg = three_channel_fig6(bound_monitor=True)
    with pytest.raises(ValidationError) as err:
        cfg.validate()
    assert err.value.violations == ["sensor 4: the bound monitor needs 1 or 2 channels, "
                                    "the sensor has 3"]
    spath = tmp_path / "scenario.yaml"
    spath.write_text(cfg.to_yaml())
    assert cli_main(["run", "--scenario", str(spath), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {err.value.violations[0]}\n"
