"""CLI behavior: commands, formats, strict configs, exit codes, artifacts."""

import contextlib
import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from skwiretap import cli
from skwiretap.harness import CHUNK_TRIALS, ConfigError, ExperimentConfig, VerdictRow, VerdictTable

THERMAL_CFG = {
    "channel": {"type": "thermal", "eta": 0.5, "n_th": 1.0, "n_s": 3.0},
    "tap": {"variance": 1.0},
    "n": 4,
    "rate": 0.5,
    "trials": 1200,
    "root_seed": 7,
    "message_selection": "uniform-random",
}

AFFINE_CFG = {
    "channel": {"type": "affine", "gain": 2.0, "noise": {"family": "two-point", "variance": 1.0, "mean": 0.0}},
    "n_s": 3.0,
    "tap": {"variance": 1.0},
    "n": 4,
    "rate": 0.5,
    "trials": 1200,
    "root_seed": 7,
}

# from_dict accepted it and every trial ran; then report.json could not hold its infinite Chebyshev bound
CHEBYSHEV_OVERFLOW_CFG = {
    "channel": {"type": "affine", "gain": 1e72, "noise": {"family": "uniform", "variance": 1.0}},
    "n_s": 1e-300,
    "tap": {"variance": 1.0},
    "n": 4,
    "rate": 0.5,
    "trials": 64,
}

# stands for a JSON number beyond double range, which json.dumps cannot write
_HUGE = 1.2345e300


def _with(base, path, value):
    """A deep copy of ``base`` with the field at ``path`` (a key sequence) set to ``value``."""
    obj = json.loads(json.dumps(base))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(THERMAL_CFG))
    return path


# SHA-256 of the stdout of ``skwiretap verify``
VERIFY_STDOUT_DIGEST = "53f606302250bce4e4608c019d85e7f17aa7ac54c3bb6c0b0d9a7db689d4e992"


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def _loaded_by_cli_import(module: str) -> bool:
    """Whether ``import skwiretap.cli`` in a fresh interpreter loads ``module``."""
    code = f"import sys, skwiretap.cli; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return done.stdout.strip() == "True"


def _reject_constant(name):
    raise ValueError(f"non-finite constant {name} in JSON output")


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err, err
    return err


PHYSICS = ("--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 10, "--rate", 0.5)

# the one message of simulate and bounds for the thermal channel of THERMAL_CFG with a tap variance of 1e-320
TINY_TAP_ERROR = "config error: (n_s + sigma2)/tap variance = (3.0 + 1.0)/1e-320 overflows\n"


class TestRates:
    def test_table_output(self, capsys):
        assert run_cli("rates", "--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 10, "--rate", 0.5) == 0
        out = capsys.readouterr().out
        assert "p_h" in out and "1.0" in out

    def test_json_values(self, capsys):
        assert (
            run_cli("rates", "--eta", 1, "--n-th", 0, "--n-s", 3, "--n", 10, "--rate", 0.5, "--format", "json")
            == 0
        )
        result = json.loads(capsys.readouterr().out)
        assert result["sigma2"] == 0.25
        assert result["p_h"] == pytest.approx(0.5 * math.log2(13), rel=1e-14, abs=0.0)
        assert result["p_sq"] is None and "eta < 1" in result["p_sq_note"]
        assert result["effective_rate"] == pytest.approx(10 / 11 * 0.5, rel=1e-14, abs=0.0)

    def test_squeezed_rate_present_for_lossy_channel(self, capsys):
        run_cli("rates", "--eta", 0.9, "--n-th", 0, "--n-s", 5, "--n", 4, "--rate", 0.5, "--format", "json")
        result = json.loads(capsys.readouterr().out)
        assert result["p_sq"] == pytest.approx(2.963925668952594, abs=1e-12)

    def test_rate_beyond_the_codebook_limit(self, capsys):
        # 2^100 messages are too many to build, but realized_rate needs only the bit count
        assert run_cli("rates", "--eta", 0.5, "--n-s", 100, "--n", 1000, "--rate", 0.1, "--format", "json") == 0
        assert json.loads(capsys.readouterr().out)["realized_rate"] == 0.1

    @pytest.mark.parametrize("flags", [("--eta", 1e-300), ("--eta", 1e-320, "--sigma2", 1)])
    def test_squeezed_rate_at_tiny_eta(self, flags, capsys):
        assert run_cli("rates", *flags, "--n-s", 3, "--n", 10, "--rate", 0.5, "--format", "json") == 0
        result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert math.isfinite(result["p_sq"])

    def test_domain_error_exit_code(self, capsys):
        assert run_cli("rates", "--eta", 0.5, "--n-s", 0, "--n", 4, "--rate", 0.5) == 1
        assert "n_s" in capsys.readouterr().err

    def test_missing_parameter(self, capsys):
        assert run_cli("rates", "--eta", 0.5, "--n", 4, "--rate", 0.5) == 1
        assert "--n-s" in capsys.readouterr().err

    def test_config_not_utf8_is_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "phys.json"
        bad.write_bytes(b"\xff" + json.dumps({"eta": 0.5, "n_th": 1.0, "n_s": 3.0, "n": 4, "rate": 0.5}).encode())
        assert run_cli("rates", "--config", bad) == 1
        assert _one_line_error(capsys).startswith(f"config error: malformed JSON in {bad}: 'utf-8' codec")

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        path = tmp_path / "phys.json"
        path.write_text(json.dumps({"eta": 0.5, "n_th": 1.0, "n_s": 3.0, "n": 4, "rate": 0.5}))
        run_cli("rates", "--config", path, "--n-s", 8, "--format", "json")
        result = json.loads(capsys.readouterr().out)
        assert result["inputs"]["n_s"] == 8.0
        assert result["p_h"] == pytest.approx(0.5 * math.log2(9), rel=1e-14, abs=0.0)

    def test_unknown_config_field(self, tmp_path):
        path = tmp_path / "phys.json"
        path.write_text(json.dumps({"eta": 0.5, "n_s": 3.0, "n": 4, "rate": 0.5, "bogus": 1}))
        assert run_cli("rates", "--config", path) == 1

    def test_config_file_tap_variance_is_unknown(self, tmp_path, capsys):
        # rates reads no tap, so its config file may not set one, as its flags may not
        path = tmp_path / "phys.json"
        path.write_text(json.dumps({"eta": 0.5, "n_s": 3.0, "n": 4, "rate": 0.5, "tap_variance": 1.0}))
        assert run_cli("rates", "--config", path) == 1
        assert _one_line_error(capsys) == f"config error: unknown fields in {path}: ['tap_variance']\n"


class TestBounds:
    def test_reference_configuration(self, capsys):
        run_cli(
            "bounds", "--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 10, "--rate", 0.5,
            "--tap-variance", 1, "--format", "json",
        )
        result = json.loads(capsys.readouterr().out)
        assert result["sk_bound"] == 0.0  # underflows; exponent still reported
        assert result["sk_bound_log10"] == pytest.approx(-667.174, rel=1e-4, abs=0.0)
        assert result["chebyshev_bound"] == pytest.approx(2.0**-10 / 3.0, rel=1e-12, abs=0.0)
        assert result["tetration"]["order"] == 0
        assert result["leakage"]["per_mode_bits"] > 0

    def test_leakage_matches_reference_example(self, capsys):
        run_cli(
            "bounds", "--eta", 0.5, "--n-th", 0, "--n-s", 2, "--n", 99, "--rate", 0.5,
            "--tap-variance", 1, "--format", "json",
        )
        result = json.loads(capsys.readouterr().out)
        assert result["leakage"]["per_mode_bits"] == pytest.approx(0.029037, abs=1e-6)

    def test_tetration_not_applicable_above_capacity(self, capsys):
        run_cli(
            "bounds", "--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 10, "--rate", 1.5,
            "--format", "json",
        )
        result = json.loads(capsys.readouterr().out)
        assert "not applicable" in result["tetration"]["note"]

    def test_active_tower(self, capsys):
        run_cli(
            "bounds", "--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 16, "--rate", 0.5,
            "--format", "json",
        )
        result = json.loads(capsys.readouterr().out)
        assert result["tetration"]["order"] == 4
        assert result["tetration"]["underflow"] is True

    def test_tiny_tap_variance_is_rejected(self, capsys):
        # (n_s + sigma2)/tap overflows, and the leakage budget with it; this printed total_bits inf
        argv = ("--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 10, "--rate", 0.5, "--tap-variance", 1e-320)
        assert run_cli("bounds", *argv) == 1
        assert _one_line_error(capsys) == TINY_TAP_ERROR

    @pytest.mark.parametrize("rate", [1e-300, 5e-324])
    def test_tower_at_rates_far_below_capacity(self, rate, capsys):
        # nu* lies below any fixed positive bracket end here, while P_H = 1
        run_cli("bounds", "--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 10, "--rate", rate, "--format", "json")
        result = json.loads(capsys.readouterr().out)
        assert result["p_h"] == 1.0
        assert result["tetration"]["order"] == 4 and "note" not in result["tetration"]


class TestBoundsOverflow:
    # 2^(2 n (P_H - R) - 1) or 2^(2 n (R - C)) leaves double range in both cases
    def test_exponent_beyond_double_range(self, capsys):
        assert run_cli("bounds", "--eta", 0.5, "--n-s", 100, "--n", 1000, "--rate", 0.1, "--format", "json") == 0
        result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert result["sk_bound"] == 0.0 and result["sk_bound_log10"] is None
        assert result["chebyshev_bound"] == 0.0

    def test_chebyshev_overflow_far_above_capacity(self, capsys):
        assert run_cli("bounds", "--eta", 0.5, "--n-s", 3, "--n", 1000, "--rate", 10, "--format", "json") == 0
        result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert result["chebyshev_bound"] is None and result["sk_bound"] > 0.0


class TestInputBoundary:
    """Malformed input ends with exit 1 and a one-line message, and JSON output is strict."""

    def _physics_config(self, tmp_path, text):
        path = tmp_path / "phys.json"
        path.write_text(text)
        return path

    @pytest.mark.parametrize("command", ["rates", "bounds"])
    @pytest.mark.parametrize(
        "text",
        [
            '{"eta": "0.5", "n_s": 3, "n": 4, "rate": 0.5}',
            '{"eta": 0.5, "n_s": 3, "n": 10.7, "rate": 0.5}',
            '{"eta": 0.5, "n_s": Infinity, "n": 4, "rate": 0.5}',
            '{"eta": 0.5, "n_s": 3, "n": 4, "rate": NaN}',
            '{"eta": 0.5, "n_s": 1e400, "n": 4, "rate": 0.5}',
            '{"eta": 0.5, "n_s": 3, "n": 4, "rate": 0.5, "tap_variance": [1]}',
            '{"eta": 0.5, "n_s": 3, "n": true, "rate": 0.5}',
            '[0.5, 3, 4, 0.5]',
        ],
    )
    def test_bad_physics_config(self, command, text, tmp_path, capsys):
        assert run_cli(command, "--config", self._physics_config(tmp_path, text), "--format", "json") == 1
        _one_line_error(capsys)

    @pytest.mark.parametrize(
        "flags", [("--n-s", "inf"), ("--rate", "nan"), ("--eta", "1e-320"), ("--sigma2", "5e-324")]
    )
    def test_non_finite_flags(self, flags, capsys):
        argv = dict(zip(PHYSICS[::2], PHYSICS[1::2]))
        argv.update([flags])
        assert run_cli("rates", *[x for kv in argv.items() for x in kv], "--format", "json") == 1
        _one_line_error(capsys)

    @pytest.mark.parametrize(
        "command,flags,field",
        [
            ("rates", ("--eta", 5), "eta=5.0"),
            ("bounds", ("--eta", 0.5, "--n-th", -1), "n_th=-1.0"),
        ],
    )
    def test_eta_and_n_th_checked_beside_sigma2(self, command, flags, field, capsys):
        # a given sigma2 replaces the induced one, but eta and n_th still have to be in range
        argv = (*flags, "--sigma2", 1, "--n-s", 3, "--n", 10, "--rate", 0.5)
        assert run_cli(command, *argv) == 1
        assert field in _one_line_error(capsys)

    def test_codebook_size_beyond_double_range(self, tmp_path, capsys):
        # n * rate leaves double range in codebook_bits, for a float n and for an integer n
        # beyond double range: one config error, the same from every command
        lines = []
        for n in (1e300, 10**400):
            path = self._physics_config(tmp_path, json.dumps({"eta": 0.5, "n_s": 3, "n": n, "rate": 1e10}))
            config = tmp_path / "config.json"
            config.write_text(json.dumps(dict(THERMAL_CFG, n=n, rate=1e10)))
            assert run_cli("simulate", "--config", config, "--out", tmp_path / "out") == 1
            lines.append(_one_line_error(capsys))
            for command in ("rates", "bounds"):
                assert run_cli(command, "--config", path) == 1
                lines.append(_one_line_error(capsys))
        assert lines == ["config error: n*rate is beyond double range\n"] * 6
        assert not (tmp_path / "out").exists()

    def test_signal_to_noise_overflow_has_one_message(self, tmp_path, capsys):
        # simulate and rates/bounds reject the same n_s/sigma2 through the same check
        path = tmp_path / "config.json"
        path.write_text(json.dumps(_with(_with(AFFINE_CFG, ("channel", "noise", "variance"), 1e-300), ("n_s",), 1e300)))
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out") == 1
        lines = {_one_line_error(capsys)}
        for command in ("rates", "bounds"):
            assert run_cli(command, "--eta", 0.5, "--n-s", 1e300, "--sigma2", 1e-300, "--n", 4, "--rate", 0.5) == 1
            lines.add(_one_line_error(capsys))
        assert lines == {"config error: n_s/sigma2 = 1e+300/1e-300 overflows\n"}
        assert not (tmp_path / "out").exists()

    def test_signal_to_noise_is_checked_before_the_codebook(self, tmp_path, capsys):
        # n * rate also leaves double range here; BoundQuery refuses n_s/sigma2 before the codebook is sized
        obj = _with(_with(AFFINE_CFG, ("channel", "noise", "variance"), 1e-300), ("n_s",), 1e300)
        obj["rate"] = 1e308
        config, sweep = tmp_path / "config.json", tmp_path / "sweep.json"
        config.write_text(json.dumps(obj))
        sweep.write_text(json.dumps(dict(obj, sweep={"axis": "trials", "start": 10, "stop": 20, "steps": 2})))
        assert run_cli("simulate", "--config", config, "--out", tmp_path / "out") == 1
        lines = [_one_line_error(capsys)]
        assert run_cli("sweep", "--config", sweep, "--out", tmp_path / "rows.csv") == 1
        lines.append(_one_line_error(capsys))
        for command in ("rates", "bounds"):
            assert run_cli(command, "--eta", 0.5, "--n-s", 1e300, "--sigma2", 1e-300, "--n", 4, "--rate", 1e308) == 1
            lines.append(_one_line_error(capsys))
        assert lines == ["config error: n_s/sigma2 = 1e+300/1e-300 overflows\n"] * 4
        assert not (tmp_path / "out").exists() and not (tmp_path / "rows.csv").exists()

    def test_tiny_sigma2_tower(self, capsys):
        argv = ("--eta", 1, "--n-s", 1, "--sigma2", 1e-300, "--n", 50, "--rate", 100, "--format", "json")
        assert run_cli("bounds", *argv) == 0
        result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert result["tetration"]["order"] == 39

    def test_null_optional_fields_mean_absent(self, tmp_path, capsys):
        text = '{"eta": 0.5, "n_th": null, "sigma2": null, "n_s": 3, "n": 4, "rate": 0.5, "tap_variance": null}'
        assert run_cli("bounds", "--config", self._physics_config(tmp_path, text), "--format", "json") == 0
        result = json.loads(capsys.readouterr().out)
        assert result["inputs"]["sigma2"] == 0.5 and result["leakage"] is None

    def test_seed_override_on_non_object_config(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([THERMAL_CFG]))
        assert run_cli("simulate", "--config", path, "--seed", 3) == 1
        assert "JSON object" in _one_line_error(capsys)

    def test_non_object_sweep_block(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(THERMAL_CFG, sweep=[1, 2])))
        assert run_cli("sweep", "--config", path) == 1
        assert "'sweep' object" in _one_line_error(capsys)

    @pytest.mark.parametrize(
        "command,obj,message",
        [
            ("simulate", _with(THERMAL_CFG, ("channel", "eta"), "0.5"), "eta='0.5' must be a finite number"),
            ("simulate", _with(THERMAL_CFG, ("channel", "n_s"), "3"), "n_s='3' must be a finite number"),
            ("simulate", _with(AFFINE_CFG, ("channel", "noise", "variance"), _HUGE),
             "variance=inf must be a finite number"),
            ("simulate", _with(THERMAL_CFG, ("tap",), {}), "tap requires 'variance'"),
            ("simulate", _with(THERMAL_CFG, ("tap",), 5), "tap must be a JSON object, not int"),
            ("simulate", _with(AFFINE_CFG, ("channel", "noise", "mean"), None), "mean=None must be a finite number"),
            ("sweep", dict(THERMAL_CFG, sweep={"axis": "n", "start": 2, "stop": 4, "steps": 2.7}),
             "steps=2.7 must be an integer"),
            ("sweep", dict(THERMAL_CFG, sweep={"axis": "rate", "start": "0.4", "stop": 0.5, "steps": 2}),
             "start='0.4' must be a finite number"),
            ("sweep", dict(THERMAL_CFG, channel=[1], sweep={"axis": "eta", "start": 0.5, "stop": 0.9, "steps": 2}),
             "sweeping eta requires a thermal channel config"),
            ("sweep", dict(THERMAL_CFG, channel="thermal", sweep={"axis": "n_s", "start": 1, "stop": 3, "steps": 2}),
             "channel must be a JSON object"),
            # stop - start overflowed inside np.linspace: numpy warnings, then a NaN point
            *[("sweep", dict(THERMAL_CFG, sweep={"axis": axis, "start": -1.7e308, "stop": 1.7e308, "steps": 3}),
               "config error: sweep range from start=-1.7e+308 to stop=1.7e+308 overflows\n") for axis in ("rate", "n")],
            # the lanes address trials below 2^56; past it a run failed only after 2^56 trials,
            # and with --threads 2 at 2^80 the worker count's range() named no field
            *[("simulate", dict(THERMAL_CFG, trials=trials),
               f"config error: trials={trials} must be <= 2^56, the most trials the lanes can address\n")
              for trials in (2**56 + 1, 2**80)],
            *[(command, obj, "config error: the Chebyshev error bound gain^2 2^(-2n(C - R)) sigma2/n_s leaves double"
               " range at gain=1e+72, n_s=1e-300, sigma2=1.0, n=4, R=0.5\n")
              for command, obj in (
                  ("simulate", CHEBYSHEV_OVERFLOW_CFG),
                  ("sweep",
                   dict(CHEBYSHEV_OVERFLOW_CFG, sweep={"axis": "trials", "start": 64, "stop": 128, "steps": 2})),
              )],
            # one step ran start alone and dropped stop without a word
            ("sweep", dict(THERMAL_CFG, sweep={"axis": "eta", "start": 0.3, "stop": 0.9, "steps": 1}),
             "config error: sweep steps=1 runs start=0.3 alone: stop=0.9 must equal it\n"),
            # the type is checked before 'm': a missing 'm' was the first message, the wrong type the next
            ("simulate", dict(THERMAL_CFG, message_selection={"type": "round-robin"}),
             "config error: message_selection object form is only for {'type': 'fixed', 'm': <int>}\n"),
            ("simulate", dict(THERMAL_CFG, message_selection={"type": "fixed"}),
             "config error: message_selection requires 'm'\n"),
        ],
    )
    def test_bad_experiment_config(self, command, obj, message, tmp_path, monkeypatch, capsys):
        # a refused config runs no trial: at 2^56 + 1 trials one would not end
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("a trial ran"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj).replace(repr(_HUGE), "1e400"))
        assert run_cli(command, "--config", path, "--out", tmp_path / "out") == 1
        assert message in _one_line_error(capsys)

    def test_non_finite_n_s_has_one_message(self, tmp_path, capsys):
        # a simulate config, a sweep config, a rates physics file and the --n-s flag go through one reader
        experiment = _with(THERMAL_CFG, ("channel", "n_s"), _HUGE)
        files = {
            "simulate": experiment,
            "sweep": dict(experiment, sweep={"axis": "n", "start": 2, "stop": 4, "steps": 2}),
            "rates": {"eta": 0.5, "n_s": _HUGE, "n": 4, "rate": 0.5},
        }
        lines = set()
        for command, obj in files.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(obj).replace(repr(_HUGE), "1e400"))
            assert run_cli(command, "--config", path, "--out", tmp_path / "out") == 1
            lines.add(_one_line_error(capsys))
        assert run_cli("rates", "--eta", 0.5, "--n-s", "inf", "--n", 4, "--rate", 0.5) == 1
        lines.add(_one_line_error(capsys))
        assert lines == {"config error: n_s=inf must be a finite number\n"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field,value",
        [("eta", 0), ("eta", 1.5), ("eta", 1e-320), ("n_th", -1), ("n_s", -3), ("n", 0), ("rate", -0.5),
         ("tap_variance", -1), ("tap_variance", 0)],
    )
    def test_out_of_range_value_has_one_message(self, field, value, tmp_path, monkeypatch, capsys):
        # a simulate config, a sweep config, a physics flag and a physics file go through one range check
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("a trial ran"))
        path = {"eta": ("channel", "eta"), "n_th": ("channel", "n_th"), "n_s": ("channel", "n_s"),
                "tap_variance": ("tap", "variance")}.get(field, (field,))
        experiment = _with(THERMAL_CFG, path, value)
        argvs = []
        for command, obj in (
            ("simulate", experiment),
            ("sweep", dict(experiment, sweep={"axis": "trials", "start": 300, "stop": 400, "steps": 2})),
        ):
            config = tmp_path / f"{command}.json"
            config.write_text(json.dumps(obj))
            argvs.append((command, "--config", config, "--out", tmp_path / "out"))
        physics = {"eta": 0.5, "n_th": 1.0, "n_s": 3.0, "n": 10, "rate": 0.5, field: value}
        config = tmp_path / "phys.json"
        config.write_text(json.dumps(physics))
        flags = [x for k, v in physics.items() for x in (f"--{k.replace('_', '-')}", v)]
        for command in ("bounds",) if field == "tap_variance" else ("rates", "bounds"):
            argvs += [(command, *flags), (command, "--config", config)]
        lines = set()
        for argv in argvs:
            assert run_cli(*argv) == 1, argv
            lines.add(_one_line_error(capsys))
        assert len(lines) == 1 and lines.pop().startswith("config error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text", ["[" * 100_000 + "]" * 100_000, '{"eta": ' + "[" * 100_000 + "]" * 100_000 + "}"], ids=["array", "field"]
    )
    @pytest.mark.parametrize("command", ["simulate", "rates"])
    def test_deeply_nested_config_is_malformed_json(self, command, text, tmp_path, capsys):
        path = self._physics_config(tmp_path, text)
        assert run_cli(command, "--config", path, "--out", tmp_path / "out") == 1
        assert _one_line_error(capsys).startswith(f"config error: malformed JSON in {path}: maximum recursion depth")
        assert not (tmp_path / "out").exists()


# the prefixes of an input that a command refuses (exit 1)
_INPUT_FAULTS = ("config error: ", "domain error: ", "memory error: ")

_FUZZ_VALUES = st.one_of(
    st.floats(min_value=0.01, max_value=10.0),
    st.integers(min_value=-3, max_value=60),
    st.integers(min_value=10**300, max_value=10**400),
    st.floats(min_value=1e300, max_value=1.7e308),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(), max_size=2),
)


@pytest.mark.parametrize("command", ["rates", "bounds"])
@given(
    params=st.fixed_dictionaries(
        {field: _FUZZ_VALUES for field in ("eta", "n_s", "n", "rate")},
        optional={field: _FUZZ_VALUES for field in ("n_th", "sigma2", "tap_variance")},
    )
)
# the thermal-entropy bound read NaN at n_s 1e306, the tap capacity overflowed at tap variance 1e-320,
# and the squeezed-state rate read NaN once 4 n_s overflowed
@example(params={"eta": 0.5, "n_s": 1e306, "n": 1, "rate": 0.5, "tap_variance": 1.0})
@example(params={"eta": 0.5, "n_th": 1.0, "n_s": 3.0, "n": 10, "rate": 0.5, "tap_variance": 1e-320})
@example(params={"eta": 0.5, "n_s": 4.49423283715579e307, "n": 1, "rate": 1.0})
def test_fuzz_physics_config(command, params):
    # each command's own fields: rates rejects tap_variance before any other check
    params = {k: v for k, v in params.items() if command == "bounds" or k != "tap_variance"}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "phys.json"
        path.write_text(json.dumps(params))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(command, "--config", path, "--format", "json")
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
        assert err.getvalue().startswith(_INPUT_FAULTS), err.getvalue()
        # a result the serializer refuses is a fault of the command, not a rejected input
        assert "Out of range float values are not JSON compliant" not in err.getvalue()


def _or_fuzz(strategy):
    """A draw of ``strategy`` or, as often, of ``_FUZZ_VALUES`` (``|`` would give ``strategy`` one branch in ten)."""
    return st.booleans().flatmap(lambda fuzz: _FUZZ_VALUES if fuzz else strategy)


@given(
    axis=_or_fuzz(st.sampled_from(["n", "rate", "n_s", "eta", "trials"])),
    bounds=st.fixed_dictionaries(
        {"start": _FUZZ_VALUES, "stop": _FUZZ_VALUES, "steps": _or_fuzz(st.integers(min_value=1, max_value=4))}
    ),
)
# np.linspace overflowed on stop - start and warned twice, then a NaN point was the error
@example(axis="rate", bounds={"start": -1.7e308, "stop": 1.7e308, "steps": 3})
# more steps than numpy can hold: its message named no field
@example(axis="n", bounds={"start": 1, "stop": 9, "steps": 1e300})
# the first and last step counts below 2^60 that numpy cannot lay out: its message named no field
@example(axis="n", bounds={"start": 1, "stop": 9, "steps": 2**60 - 64})
@example(axis="n", bounds={"start": 1, "stop": 9, "steps": 2**60 - 1})
def test_fuzz_sweep_config(axis, bounds):
    obj = dict(THERMAL_CFG, sweep={"axis": axis, **bounds})
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        # every point is checked and none runs
        patch.setattr(cli, "run_experiment", lambda cfgs, threads: cfgs)
        patch.setattr(cli, "report_flat_row", lambda cfg: {"n": cfg.n})
        path = Path(tmp) / "sweep.json"
        path.write_text(json.dumps(obj))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("sweep", "--config", path, "--out", Path(tmp) / "rows.csv")
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
        assert err.getvalue().startswith(_INPUT_FAULTS), err.getvalue()
    # a valid axis and range with more steps than numpy can lay out (every fuzzed step
    # count this large is): the step count is refused, by name
    if (
        axis in cli._SWEEP_AXES
        and all(type(bounds[k]) in (int, float) and abs(bounds[k]) <= 1e300 for k in ("start", "stop"))
        and type(bounds["steps"]) in (int, float)
        and bounds["steps"] >= 2**60 - 64
    ):
        assert code == 1 and "steps" in err.getvalue(), err.getvalue()


# every field of the thermal and affine experiment configs, nested fields included
_CONFIG_FIELDS = [
    ("channel",), ("channel", "type"), ("channel", "eta"), ("channel", "n_th"), ("channel", "n_s"),
    ("channel", "gain"), ("channel", "noise"), ("channel", "noise", "family"), ("channel", "noise", "variance"),
    ("channel", "noise", "mean"), ("n_s",), ("tap",), ("tap", "variance"), ("n",), ("rate",), ("trials",),
    ("root_seed",), ("message_selection",), ("message_selection", "type"), ("message_selection", "m"),
]


@given(
    base=st.sampled_from([THERMAL_CFG, dict(AFFINE_CFG, message_selection={"type": "fixed", "m": 2})]),
    # _FUZZ_VALUES draws no integer between 61 and 10^300, so none near the trials limit 2^56
    edits=st.lists(
        st.tuples(st.sampled_from(_CONFIG_FIELDS), st.one_of(_FUZZ_VALUES, st.integers(2**56 - 2, 2**70))),
        min_size=1, max_size=3,
    ),
)
# one past the trials the lanes can address was accepted
@example(base=THERMAL_CFG, edits=[(("trials",), 2**56 + 1)])
# n_s/sigma2 underflowed to 0 in the overflow check's log2: a math domain error, not a config error
@example(base=AFFINE_CFG, edits=[(("channel", "noise", "variance"), 10**300), (("n_s",), 2.225073858507e-311)])
def test_fuzz_experiment_config(base, edits):
    obj = base
    for path, value in edits:
        with contextlib.suppress(KeyError, TypeError):  # the field's parent is absent or not an object
            obj = _with(obj, path, value)
    # from_dict directly: a fuzzed trials value must not run
    try:
        cfg = ExperimentConfig.from_dict(obj)
    except ConfigError:
        return
    assert cfg.trials <= 2**56
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


class TestSimulate:
    def test_end_to_end(self, cfg_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert run_cli("simulate", "--config", cfg_path, "--out", out_dir, "--dump-transcripts") == 0
        assert "overall: pass" in capsys.readouterr().out
        report = json.loads((out_dir / "report.json").read_text())
        schema = json.loads(
            (Path(cli.__file__).resolve().parent / "report_schema.json").read_text()
        )
        jsonschema.validate(report, schema)
        assert report["results"]["error_count"] == 0
        lines = (out_dir / "transcripts.csv").read_text().strip().splitlines()
        assert lines[0] == "trial,i,x,n,y"
        assert len(lines) == 1 + THERMAL_CFG["trials"] * (THERMAL_CFG["n"] + 2)

    def test_json_format_is_strict_json(self, cfg_path, tmp_path, capsys):
        assert run_cli("simulate", "--config", cfg_path, "--out", tmp_path, "--format", "json") == 0
        result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert result["verdict"]["pass"] is True
        assert all(row["pass"] is True for row in result["verdict"]["rows"])
        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject_constant)
        assert result["report"] == report

    @pytest.mark.parametrize("obj", [THERMAL_CFG, AFFINE_CFG], ids=["thermal", "affine"])
    def test_json_reader_can_rejudge_every_row(self, obj, tmp_path, capsys):
        # each row's verdict follows from its own fields: |empirical - predicted| <= tolerance,
        # or empirical - predicted <= tolerance for a one-sided row
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        code = run_cli("simulate", "--config", path, "--out", tmp_path / "out", "--format", "json")
        verdict = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["verdict"]
        for row in verdict["rows"]:
            deviation = None if row["empirical"] is None else row["empirical"] - row["predicted"]
            if deviation is not None and not row["one_sided"]:
                deviation = abs(deviation)
            assert row["pass"] is (deviation is not None and deviation <= row["tolerance"]), row
        assert {row["one_sided"] for row in verdict["rows"]} == {False, True}
        assert verdict["pass"] is all(row["pass"] for row in verdict["rows"])
        assert code == (0 if verdict["pass"] else 3)

    def test_byte_identical_across_runs_and_threads(self, cfg_path, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", cfg_path, "--out", out1) == 0
        assert run_cli("simulate", "--config", cfg_path, "--out", out2, "--threads", 2) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_seed_override(self, cfg_path, tmp_path):
        out = tmp_path / "seeded"
        assert run_cli("simulate", "--config", cfg_path, "--out", out, "--seed", 99) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["root_seed"] == 99

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"channel": \n  oops}')
        assert run_cli("simulate", "--config", bad) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_config_not_utf8_is_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b"\xff" + json.dumps(THERMAL_CFG).encode())
        assert run_cli("simulate", "--config", bad, "--out", tmp_path / "out") == 1
        assert _one_line_error(capsys).startswith(f"config error: malformed JSON in {bad}: 'utf-8' codec")
        assert not (tmp_path / "out").exists()

    def test_unknown_field_rejected(self, tmp_path, capsys):
        obj = dict(THERMAL_CFG, typo_field=3)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(obj))
        assert run_cli("simulate", "--config", path) == 1
        assert "typo_field" in capsys.readouterr().err

    def test_output_collision_is_io_error(self, cfg_path, tmp_path, capsys):
        clash = tmp_path / "occupied"
        clash.write_text("a file, not a directory")
        assert run_cli("simulate", "--config", cfg_path, "--out", clash) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"io error: cannot write outputs under {clash}: [Errno 17] File exists")
        assert err.count("\n") == 1

    def test_verdict_failure_exit_code(self, cfg_path, tmp_path, monkeypatch, capsys):
        failing = VerdictTable(
            rows=(VerdictRow(quantity="forced", empirical=1.0, predicted=0.0, tolerance=0.0),)
        )
        monkeypatch.setattr(cli, "compare_bounds", lambda report: failing)
        assert run_cli("simulate", "--config", cfg_path, "--out", tmp_path / "v") == 3
        assert "FAIL" in capsys.readouterr().out

    def test_variance_underflow_is_a_verdict_failure(self, tmp_path, capsys):
        # the predicted variance underflows to 0: the ratio is null and its row fails, in every format
        obj = dict(THERMAL_CFG, n=600, rate=0.05, trials=200)
        path = tmp_path / "long.json"
        path.write_text(json.dumps(obj))
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out") == 3
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("var_theta_ratio"))
        assert "null" in row and "FAIL" in row

        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out", "--format", "json") == 3
        result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        (row,) = [r for r in result["verdict"]["rows"] if r["quantity"] == "var_theta_ratio"]
        assert row["empirical"] is None and row["pass"] is False

        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out", "--format", "csv") == 3
        header, values = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), values.split(",")))
        index = next(k.split(".")[1] for k, v in cells.items() if v == "var_theta_ratio")
        assert cells[f"rows.{index}.empirical"] == "" and cells[f"rows.{index}.pass"] == "False"

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_overflowing_config_runs_nothing(self, fmt, tmp_path, monkeypatch, capsys):
        # it passed every field check, then wrote NaN and Infinity into report.json
        obj = dict(_with(_with(AFFINE_CFG, ("channel", "gain"), 1e300), ("channel", "noise"),
                         {"family": "gaussian", "variance": 1e300}), n_s=3, trials=3000)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("a trial ran"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--config", path, "--out", tmp_path / "out", "--format", fmt) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: the run would overflow: trials * (gain (theta_n - theta_m))^4 of the decoder sums"
            " reaches 2^6017, above 2^1020\n"
        )
        assert not (tmp_path / "out").exists()

    def test_tiny_tap_variance_runs_nothing(self, tmp_path, monkeypatch, capsys):
        # it ran every trial, then failed to write the infinite tap capacity into report.json
        path = tmp_path / "tap.json"
        path.write_text(json.dumps(_with(THERMAL_CFG, ("tap", "variance"), 1e-320)))
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: pytest.fail("a trial ran"))
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out") == 1
        assert _one_line_error(capsys) == TINY_TAP_ERROR
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "n_s,n,rate",
        [
            pytest.param(1e140, 4, 0.5, marks=pytest.mark.xfail(
                strict=True, raises=RuntimeWarning,
                reason="ROADMAP item 12: y0/gain - theta_m loses the round-0 noise once ulp(theta_m) >> sigma",
            )),
            pytest.param(0.5, 1500, 0.01, marks=pytest.mark.xfail(
                strict=True, raises=RuntimeWarning,
                reason="ROADMAP item 12: the one-ulp stick of item 5 at n_s < sigma2 and large n",
            )),
        ],
    )
    def test_accepted_config_writes_a_strict_json_report(self, n_s, n, rate, tmp_path):
        # from_dict accepts both; numpy overflow warnings, then report.json cannot hold an inf
        obj = {"channel": {"type": "affine", "noise": {"family": "gaussian", "variance": 1.0}},
               "n_s": n_s, "tap": {"variance": 1.0}, "n": n, "rate": rate, "trials": 200}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("simulate", "--config", path, "--out", tmp_path / "out") in (0, 3)
        json.loads((tmp_path / "out" / "report.json").read_text(), parse_constant=_reject_constant)

    def test_run_too_large_to_allocate_is_one_line(self, tmp_path, capsys):
        # it passes every config check; its forward lane draws are (n + 1) x 8192
        # doubles, 5.8 PiB, which no 2^47-byte address space holds, so numpy
        # refuses at once and touches no page
        obj = dict(_with(AFFINE_CFG, ("channel", "noise"), {"family": "gaussian", "variance": 1.0}),
                   n_s=1e-9, n=10**11, rate=1e-10, trials=CHUNK_TRIALS)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out") == 1
        assert _one_line_error(capsys).startswith("memory error: ")
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert run_cli("simulate", "--config", tmp_path / "absent.json") == 2

    def test_single_trial_writes_null_with_reason(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(dict(THERMAL_CFG, trials=1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
            assert run_cli("simulate", "--config", path, "--out", tmp_path, "--format", "json") == 3
        result = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_reject_constant)
        assert result["report"] == report
        assert report["diagnostics"]["theta_skewness"] is None
        assert report["diagnostics"]["null_reasons"]["theta_skewness"] == "fewer than 2 trials"
        failed = {row["quantity"] for row in result["verdict"]["rows"] if not row["pass"]}
        assert {"var_theta_ratio", "max_feedback_corr", "theta_skewness", "theta_excess_kurtosis"} <= failed


    def test_workers_joined_before_main_returns(self, tmp_path, monkeypatch, forked_pools, capsys):
        # RUSAGE_CHILDREN only counts workers that were joined; two CPUs, so --threads 2 forks two on any host
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = tmp_path / "two_chunks.json"
        path.write_text(json.dumps(dict(THERMAL_CFG, trials=CHUNK_TRIALS + 1)))
        assert run_cli("simulate", "--config", path, "--out", tmp_path / "out", "--threads", 2) == 0
        assert multiprocessing.active_children() == []
        blocked = tmp_path / "a_file"
        blocked.write_text("")
        assert run_cli("simulate", "--config", path, "--out", blocked, "--threads", 2) == cli.EXIT_IO
        assert multiprocessing.active_children() == []
        assert forked_pools == [(2, 0), (2, 0)]


class TestSweep:
    def _write(self, tmp_path, sweep):
        obj = dict(THERMAL_CFG, trials=400, sweep=sweep)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(obj))
        return path

    def test_blocklength_sweep(self, tmp_path, capsys):
        path = self._write(tmp_path, {"axis": "n", "start": 2, "stop": 6, "steps": 3})
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["n"]) for r in rows] == [2, 4, 6]
        assert all(r["error_rate"] != "" for r in rows)

    def test_one_step_sweep_at_start(self, tmp_path):
        path = self._write(tmp_path, {"axis": "eta", "start": 0.3, "stop": 0.3, "steps": 1})
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 0
        with open(out) as fh:
            assert [float(r["eta"]) for r in csv.DictReader(fh)] == [0.3]

    @pytest.mark.byte_pinned
    @pytest.mark.parametrize(
        "sweep,trials,digest",
        [
            (
                {"axis": "n", "start": 1, "stop": 9, "steps": 3},
                CHUNK_TRIALS + 300,
                "247035b81a39fe53b926e172a1641426576b96e8410e06cacf63def195735f7a",
            ),
            (
                {"axis": "trials", "start": 300, "stop": 2 * CHUNK_TRIALS + 77, "steps": 3},
                1200,
                "2bdbd838b858e7e6d12454f6c207c64f65a183ee10971341eef02505a8cf1084",
            ),
        ],
        ids=["n", "trials"],
    )
    def test_csv_bytes_pinned(self, sweep, trials, digest, tmp_path, capsys):
        # the digests of each point run by itself; the points now run in one call
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(THERMAL_CFG, trials=trials, sweep=sweep)))
        for threads in (1, 2):
            out = tmp_path / f"rows{threads}.csv"
            assert run_cli("sweep", "--config", path, "--out", out, "--threads", threads) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_invalid_last_point_runs_nothing(self, tmp_path, monkeypatch, capsys):
        runs = []
        real = cli.run_experiment
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: runs.append(args) or real(*args, **kwargs))
        path = self._write(tmp_path, {"axis": "trials", "start": 400, "stop": 0, "steps": 3})
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 1
        assert "trials=0 must be >= 1" in _one_line_error(capsys)
        assert runs == [] and not out.exists()

    def test_overflowing_point_runs_nothing(self, tmp_path, monkeypatch, capsys):
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: runs.append(args))
        path = self._write(tmp_path, {"axis": "n_s", "start": 3.0, "stop": 1e200, "steps": 2})
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 1
        assert "trials * x^4 of the power sums reaches 2^1363, above 2^1020" in _one_line_error(capsys)
        assert runs == [] and not out.exists()

    def test_tiny_tap_variance_point_runs_nothing(self, tmp_path, monkeypatch, capsys):
        # the tap variance suits the first point, but (n_s + sigma2)/tap overflows at the second
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args, **kwargs: runs.append(args))
        sweep = {"axis": "n_s", "start": 3, "stop": 1e10, "steps": 2}
        obj = dict(_with(THERMAL_CFG, ("tap", "variance"), 1e-300), sweep=sweep)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 1
        assert _one_line_error(capsys) == (
            "config error: (n_s + sigma2)/tap variance = (10000000000.0 + 1.0)/1e-300 overflows\n"
        )
        assert runs == [] and not out.exists()

    def test_nesting_the_parser_reads_is_one_line(self, tmp_path, capsys):
        # a field nested just within the parser's depth made the copy of each point recurse too deep
        limit = sys.getrecursionlimit()
        path = tmp_path / "sweep.json"
        for depth in range(limit - 200, limit + 1, 2):
            text = json.dumps(dict(THERMAL_CFG, sweep={"axis": "n", "start": 2, "stop": 3, "steps": 2}))
            path.write_text(text[:-1] + ', "junk": ' + "[" * depth + "]" * depth + "}")
            assert run_cli("sweep", "--config", path, "--out", tmp_path / "rows.csv") == 1
            assert _one_line_error(capsys).startswith("config error: ")
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("steps", [1e300, sys.maxsize, sys.maxsize // 8 + 1, 2**60 - 64])
    def test_more_steps_than_numpy_can_hold_names_steps(self, steps, tmp_path, capsys):
        # numpy said "Maximum allowed size exceeded", or "array is too big", or raised an IndexError
        path = self._write(tmp_path, {"axis": "n", "start": 1, "stop": 9, "steps": steps})
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 1
        assert _one_line_error(capsys) == (
            "config error: sweep steps are more float64 values than numpy can hold\n"
        )
        assert not out.exists()

    def test_too_many_steps_to_allocate_is_one_line(self, tmp_path, capsys):
        # 10^15 points are 8e15 bytes, beyond any 2^47-byte address space
        path = self._write(tmp_path, {"axis": "n", "start": 1, "stop": 9, "steps": 10**15})
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 1
        assert _one_line_error(capsys).startswith("memory error: ")
        assert not out.exists()

    def test_photon_sweep_rate_increases(self, tmp_path):
        path = self._write(tmp_path, {"axis": "n_s", "start": 1.0, "stop": 9.0, "steps": 4})
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 0
        with open(out) as fh:
            p_h = [float(r["p_h"]) for r in csv.DictReader(fh)]
        assert all(b > a for a, b in zip(p_h, p_h[1:]))

    def test_eta_sweep_sigma2_decreases_toward_vacuum(self, tmp_path):
        obj = dict(THERMAL_CFG, trials=400)
        obj["channel"] = {"type": "thermal", "eta": 0.5, "n_th": 0.0, "n_s": 3.0}
        obj["sweep"] = {"axis": "eta", "start": 0.5, "stop": 1.0, "steps": 4}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "rows.csv"
        assert run_cli("sweep", "--config", path, "--out", out) == 0
        with open(out) as fh:
            sigma2 = [float(r["sigma2"]) for r in csv.DictReader(fh)]
        assert all(b < a for a, b in zip(sigma2, sigma2[1:]))
        assert sigma2[-1] == 0.25

    def test_missing_sweep_block(self, tmp_path, capsys):
        path = tmp_path / "nosweep.json"
        path.write_text(json.dumps(dict(THERMAL_CFG, trials=10)))
        assert run_cli("sweep", "--config", path) == 1

    def test_bad_axis(self, tmp_path):
        path = self._write(tmp_path, {"axis": "tap", "start": 1, "stop": 2, "steps": 2})
        assert run_cli("sweep", "--config", path) == 1

    def test_eta_axis_needs_thermal_channel(self, tmp_path):
        obj = {
            "channel": {"type": "affine", "gain": 1.0, "noise": {"family": "gaussian", "variance": 1.0}},
            "n_s": 3.0,
            "tap": {"variance": 1.0},
            "n": 2,
            "rate": 0.5,
            "trials": 50,
            "sweep": {"axis": "eta", "start": 0.5, "stop": 0.9, "steps": 2},
        }
        path = tmp_path / "affine_sweep.json"
        path.write_text(json.dumps(obj))
        assert run_cli("sweep", "--config", path) == 1


class TestVerifyPlumbing:
    def test_exit_codes_follow_results(self, monkeypatch, capsys):
        from skwiretap.acceptance import CriterionResult

        def stub(passed, details):
            row = VerdictRow(quantity="stub", empirical=0.0 if passed else 1.0, predicted=0.0, tolerance=0.0)
            return [CriterionResult(rows=(row,), index=1, name="stub", details=details)]

        good, bad = stub(True, "ok"), stub(False, "broken")
        monkeypatch.setattr(cli, "run_all", lambda: good)
        assert run_cli("verify") == 0
        monkeypatch.setattr(cli, "run_all", lambda: bad)
        assert run_cli("verify") == 3
        assert "0/1 criteria passed" in capsys.readouterr().out

    def test_stdout_layout(self, capsys):
        from skwiretap.acceptance import CRITERIA

        assert cli.main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "running Monte Carlo experiments (pinned seeds)..."
        assert len(lines) == len(CRITERIA) + 2
        for k, (line, name) in enumerate(zip(lines[1:-1], CRITERIA), start=1):
            assert line.startswith(f"PASS  {k:>2}. {name}: ")
        assert lines[-1] == f"{len(CRITERIA)}/{len(CRITERIA)} criteria passed"

    @pytest.mark.byte_pinned
    def test_stdout_pinned(self, capsys):
        # every report digest and criterion detail, in one hash. Criterion 2's
        # oracle makes no BLAS or LAPACK call, so no BLAS kernel moves its
        # printed residual (CI runs this under another OpenBLAS kernel too)
        assert cli.main(["verify"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == VERIFY_STDOUT_DIGEST


class TestPlumbing:
    def test_cli_import_leaves_scipy_stats_out(self):
        # scipy.stats costs about half a second of start-up and no command uses it
        assert not _loaded_by_cli_import("scipy.stats")

    def test_cli_import_leaves_scipy_optimize_out(self):
        # a quarter second of start-up for one bisection, which infotheory does itself
        assert not _loaded_by_cli_import("scipy.optimize")

    def test_usage_error_is_config_exit(self, capsys):
        assert run_cli("rates", "--format", "yaml") == 1

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 1

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one(self, command, threads, tmp_path, forked_pools, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dict(THERMAL_CFG, sweep={"axis": "n", "start": 2, "stop": 3, "steps": 2})
                                   if command == "sweep" else THERMAL_CFG))
        assert run_cli(command, "--config", path, "--out", tmp_path / "out", "--threads", threads) == 1
        assert _one_line_error(capsys) == f"config error: --threads {threads} must be >= 1\n"
        assert forked_pools == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mask", [True, False], ids=["affinity", "cpu_count"])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_threads_capped_at_the_cpus(self, command, mask, tmp_path, monkeypatch, forked_pools):
        # a pool forks every worker at once; two CPUs are mocked, so no count above the host's is forked for real
        if mask:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        # three spans, so the CPUs bound the pool and not the spans
        obj = dict(THERMAL_CFG, trials=2 * CHUNK_TRIALS + 1)
        if command == "sweep":
            obj["sweep"] = {"axis": "n", "start": 2, "stop": 3, "steps": 2}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        outs = [tmp_path / f"out{threads}" for threads in (1, 3)]
        for out, threads in zip(outs, (1, 3)):
            assert run_cli(command, "--config", path, "--out", out, "--threads", threads) == 0
        files = outs if command == "sweep" else [out / "report.json" for out in outs]
        assert files[0].read_bytes() == files[1].read_bytes()
        assert forked_pools == [(2, 0)]

    @pytest.mark.parametrize(
        "command,flag",
        [("verify", f) for f in ("--config=c.json", "--seed=1", "--out=o", "--format=json", "--threads=2")]
        + [("verify", "--dump-transcripts")]
        + [(c, f) for c in ("rates", "bounds") for f in ("--seed=1", "--threads=2", "--dump-transcripts")]
        + [("rates", "--tap-variance=1"), ("sweep", "--format=json"), ("sweep", "--dump-transcripts")],
    )
    def test_subcommand_rejects_flags_it_does_not_read(self, command, flag, tmp_path, capsys):
        base = {"verify": (), "rates": PHYSICS, "bounds": PHYSICS, "sweep": ("--config", tmp_path / "s.json")}
        assert run_cli(command, *base[command], flag) == 1
        assert "unrecognized arguments" in _one_line_error(capsys)

    def test_sweep_reads_seed_and_threads(self, tmp_path):
        sweep = {"axis": "n", "start": 2, "stop": 3, "steps": 2}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(THERMAL_CFG, trials=300, sweep=sweep)))
        outs = [tmp_path / f"{k}.csv" for k in range(3)]
        assert run_cli("sweep", "--config", path, "--out", outs[0]) == 0
        assert run_cli("sweep", "--config", path, "--out", outs[1], "--seed", 5) == 0
        assert run_cli("sweep", "--config", path, "--out", outs[2], "--seed", 5, "--threads", 2) == 0
        assert outs[0].read_bytes() != outs[1].read_bytes() == outs[2].read_bytes()

    def test_csv_format_single_row(self, capsys):
        assert (
            run_cli("rates", "--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 2, "--rate", 0.5,
                    "--format", "csv") == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].split(",")[0] == "inputs.eta"

    def test_out_file_for_rates(self, tmp_path):
        target = tmp_path / "rates.json"
        assert (
            run_cli("rates", "--eta", 0.5, "--n-th", 1, "--n-s", 3, "--n", 2, "--rate", 0.5,
                    "--format", "json", "--out", target) == 0
        )
        assert json.loads(target.read_text())["p_h"] == 1.0
