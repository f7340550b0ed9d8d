"""Tests for the declarative experiment specs."""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.specs import load_spec, run_spec, run_spec_file


def single_hop_run(**overrides):
    run = {
        "kind": "single-hop",
        "label": "quick",
        "utilization": 0.9,
        "horizon": 5e4,
        "warmup": 2e3,
        "seed": 3,
    }
    run.update(overrides)
    return run


class TestValidation:
    def test_missing_runs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_spec({"name": "x"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            run_spec({"runs": [{"kind": "quantum-hop"}]})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            run_spec({"runs": [single_hop_run(utilisation=0.9)]})

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_spec(path)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError):
            run_spec([1, 2, 3])  # type: ignore[arg-type]


class TestExecution:
    def test_single_hop_run(self):
        outcome = run_spec({"name": "s", "runs": [single_hop_run()]})
        assert outcome["name"] == "s"
        (result,) = outcome["results"]
        assert result["kind"] == "single-hop"
        assert len(result["mean_delays"]) == 4
        assert len(result["successive_ratios"]) == 3
        assert result["label"] == "quick"

    def test_custom_sdps_and_loads(self):
        run = single_hop_run(
            sdps=[1, 4], loads=[0.5, 0.5], scheduler="bpr"
        )
        outcome = run_spec({"runs": [run]})
        (result,) = outcome["results"]
        assert len(result["mean_delays"]) == 2
        assert result["target_ratios"] == [4.0]

    def test_multi_hop_run(self):
        run = {
            "kind": "multi-hop",
            "label": "chain",
            "hops": 2,
            "utilization": 0.8,
            "flow_packets": 5,
            "flow_rate_kbps": 200,
            "experiments": 3,
            "warmup": 1500,
            "seed": 2,
        }
        outcome = run_spec({"runs": [run]})
        (result,) = outcome["results"]
        assert result["kind"] == "multi-hop"
        assert result["experiments"] == 3
        assert 0.5 < result["rd"] < 5.0

    def test_idle_class_gives_non_finite_ratio(self):
        """At 5% load one class's packets all found the link idle (mean
        delay 0.0): the ratios follow IEEE division instead of raising
        ZeroDivisionError."""
        run = {
            "kind": "single-hop",
            "utilization": 0.05,
            "horizon": 2e4,
            "warmup": 1e3,
            "seed": 1,
        }
        (result,) = run_spec({"runs": [run]})["results"]
        assert 0.0 in result["mean_delays"]
        ratios = result["successive_ratios"]
        assert len(ratios) == 3
        assert not all(math.isfinite(ratio) for ratio in ratios)

    def test_results_are_json_serializable(self):
        outcome = run_spec({"runs": [single_hop_run()]})
        json.dumps(outcome)

    def test_run_spec_file_round_trip(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"runs": [single_hop_run()]}))
        out_path = tmp_path / "out.json"
        outcome = run_spec_file(spec_path, out_path)
        assert out_path.exists()
        assert json.loads(out_path.read_text()) == outcome
