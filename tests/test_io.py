"""Unit tests for CSV output, config parsing and manifests."""

import math

import numpy as np
import pytest

from ltfsm.io import (
    RunManifest,
    config_value_problem,
    format_value,
    manifest_path,
    read_config,
    write_csv,
)


def test_format_value_round_trips_floats():
    for x in (0.1, math.pi, 1e-300, 1.0 / 3.0, -2.5e17, 0.0, math.inf):
        assert float(format_value(x)) == x
    assert format_value(np.float64(0.1)) == format_value(0.1)


def test_format_value_integers_and_bools():
    assert format_value(7) == "7"
    assert format_value(np.int64(-3)) == "-3"
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value("text") == "text"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ["t", "value"], [np.array([0.0, 0.5]), np.array([0.0, -1.25])])
    assert path.read_bytes() == b"t,value\n0,0\n0.5,-1.25\n"


def test_write_csv_validates_shapes(tmp_path):
    path = str(tmp_path / "out.csv")
    with pytest.raises(ValueError):
        write_csv(path, ["a"], [np.zeros(2), np.zeros(2)])
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [np.zeros(2), np.zeros(3)])


def test_csv_floats_survive_a_parse_round_trip(tmp_path):
    path = tmp_path / "rt.csv"
    values = np.array([math.pi, 1.0 / 3.0, 6.02e23, -1e-17])
    write_csv(str(path), ["x"], [values])
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, values)


def test_read_config_parses_flat_key_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "alpha = 1.2\n"
        "\n"
        "seed=42   # trailing comment\n"
        "name = spaced value\n"
        "alpha = 1.3\n"
    )
    out = read_config(str(cfg))
    assert out == {"alpha": "1.3", "seed": "42", "name": "spaced value"}


def test_read_config_reports_the_offending_line(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 1.2\nnot a pair\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:2"):
        read_config(str(cfg))
    cfg.write_text("= 3\n")
    with pytest.raises(ValueError, match="empty key"):
        read_config(str(cfg))


def test_manifest_is_a_valid_config_file(tmp_path):
    out = tmp_path / "data.csv"
    manifest = RunManifest(
        command="simulate",
        version="0.1.0",
        config={"alpha": 1.2, "seed": 42, "out": str(out)},
        outputs=(str(out),),
    )
    mpath = manifest_path(str(out))
    assert mpath == str(out) + ".manifest"
    manifest.write(mpath)
    text = (tmp_path / "data.csv.manifest").read_text()
    assert text.splitlines()[0] == "command = simulate"
    parsed = read_config(mpath)
    assert parsed["command"] == "simulate"
    assert parsed["version"] == "0.1.0"
    assert parsed["alpha"] == format_value(1.2)
    assert parsed["seed"] == "42"
    assert parsed["output"] == str(out)


def test_read_config_keeps_a_hash_that_does_not_follow_whitespace(tmp_path):
    cfg = tmp_path / "hash.cfg"
    cfg.write_text("out = x#y.csv\nname = a#b # comment\n#whole line\ntab = v\t#c\n")
    assert read_config(str(cfg)) == {"out": "x#y.csv", "name": "a#b", "tab": "v"}


def test_config_value_problem_names_what_the_format_cannot_carry():
    for good in ("x#y.csv", "run.csv", "a b.csv", "a=b", "z#"):
        assert config_value_problem(good) is None
    for bad in ("a\nb", "a\rb", " a", "a ", "\ta", "a #b", "a\t#b", "#a"):
        assert config_value_problem(bad) is not None
