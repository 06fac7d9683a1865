import json
import math

import numpy as np
import pytest

from tfnorm.cli import main
from tfnorm.grid import GridSpec
from tfnorm.io_json import function_from_dict, function_to_dict, load_function, save_function
from tfnorm.norms import amalgam_norm_discrete, AmalgamSpec, GlobalSpec
from tfnorm.spaces import FLpSpec
from tfnorm.windows import gaussian


@pytest.fixture()
def fn_file(tmp_path):
    g = GridSpec(1, 16.0, 256)
    path = tmp_path / "f.json"
    save_function(gaussian(g, a=1.0), str(path))
    return str(path)


def test_function_json_roundtrip():
    g = GridSpec(1, 16.0, 64)
    f = gaussian(g, a=0.5, freq=1.0)
    back = function_from_dict(function_to_dict(f))
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_norm_command(fn_file, capsys):
    rc = main(["norm", "--space", "W(FL2[0], l1[0])", "--input", fn_file])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    f = load_function(fn_file)
    expected = amalgam_norm_discrete(
        f, AmalgamSpec(FLpSpec(2.0), GlobalSpec(1.0))
    ).value
    assert out["value"] == pytest.approx(expected, rel=1e-12)
    assert out["normal_form"] == "W(FL2, l1)"


def test_norm_command_normalizes_composites(fn_file, capsys):
    rc = main(["norm", "--space", "Mod((L1 opi L2))", "--input", fn_file])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["normal_form"] == "W(FL2, l1)"
    assert out["trace"][0]["rule_id"] == "R_C61a"


def test_norm_command_unsupported(fn_file, capsys):
    rc = main(["norm", "--space", "Mod((L3 opi L2))", "--input", fn_file])
    assert rc == 2


def test_norm_command_parse_error(fn_file, capsys):
    rc = main(["norm", "--space", "Mod((L3 opi", "--input", fn_file])
    assert rc == 2
    assert "offset 11" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["norm", "stft"])
@pytest.mark.parametrize("content", [None, "{not json", '{"values": []}'])
def test_unreadable_input_is_usage_error(command, content, tmp_path, capsys):
    path = tmp_path / "f.json"
    if content is not None:
        path.write_text(content)
    extra = ["--space", "L2"] if command == "norm" else ["--out", str(tmp_path / "tf.json")]
    rc = main([command, "--input", str(path), *extra])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: cannot read function file")


def test_norm_command_grid_without_integer_partition(tmp_path, capsys):
    path = tmp_path / "f.json"
    save_function(gaussian(GridSpec(1, 10.0, 1024)), str(path))  # spacing 5/256
    rc = main(["norm", "--space", "W(L2, l1)", "--input", str(path)])
    assert rc == 2
    assert "does not divide 1" in capsys.readouterr().err


def test_stft_command(fn_file, tmp_path, capsys):
    out = tmp_path / "tf.json"
    rc = main(["stft", "--window", "gaussian", "--input", fn_file, "--out", str(out)])
    assert rc == 0
    blob = json.loads(out.read_text())
    assert blob["xgrid"]["N"] == 256
    assert len(blob["values"]) == 256 * 256


def test_identify_command(capsys):
    rc = main(["identify", "Mod((L1 opi L2))", "--trace"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "W(FL2, l1)"
    assert "R_C61a" in out


def test_identify_parse_error(capsys):
    rc = main(["identify", "Mod((L3 opi"])
    assert rc == 2


@pytest.mark.parametrize("text", ["L0.5", "W(L2, l0.5)", "M0.5,2"])
def test_exponent_below_one_is_usage_error(text, fn_file, capsys):
    assert main(["identify", text]) == 2
    assert capsys.readouterr().err.startswith("error: exponent must be in [1, inf]")
    assert main(["norm", "--space", text, "--input", fn_file]) == 2
    assert capsys.readouterr().err.startswith("error: exponent must be in [1, inf]")


def test_verify_command_writes_report(tmp_path, capsys):
    out = tmp_path / "bupu.json"
    rc = main(["verify", "bupu", "--N", "256", "--out", str(out)])
    assert rc == 0
    d = json.loads(out.read_text())
    assert d["theorem_id"] == "bupu" and d["passed"]


def test_verify_command_csv(capsys):
    rc = main(["verify", "bupu", "--N", "256", "--format", "csv"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("case,name,lhs,rhs,ratio")


def test_verify_rejects_bad_config(capsys):
    rc = main(["verify", "thm4.2", "--p1", "3", "--p2", "3"])
    assert rc == 2
    assert "hypothesis violated" in capsys.readouterr().err


def test_verify_odd_grid_is_usage_error(capsys):
    rc = main(["verify", "bupu", "--N", "1001"])
    assert rc == 2
    assert "invalid grid" in capsys.readouterr().err


def test_verify_spacing_not_dividing_one_is_usage_error(capsys):
    rc = main(["verify", "thm5.1", "--N", "1000"])
    assert rc == 2
    assert "does not divide 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "thm5.1", "--dual-count", "0"], "dual_count must be an integer >= 1"),
        (["verify", "cor6.1b", "--dual-count", "-3"], "dual_count must be an integer >= 1"),
        (["verify", "lemma3.3", "--seed", "-1"], "seed must be an integer >= 0"),
    ],
)
def test_verify_bad_seed_or_dual_count_is_usage_error(argv, message, capsys):
    rc = main(argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "thm4.2", "--p1", "abc"],
        ["verify", "lemma3.3", "--p", "abc"],
        ["verify", "thm5.1", "--p1", "inf"],
        ["verify", "thm4.2", "--E", "L2("],
        ["verify", "thm5.1", "--E", "W(L2, l1)"],
        ["verify", "lemma3.3", "--local", "FL2("],
        ["verify", "bupu", "--L", "inf"],
        ["verify", "lemma3.3", "--spread-bound", "nan"],
    ],
)
def test_verify_bad_value_is_usage_error(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_unknown_id(capsys):
    rc = main(["verify", "nope"])
    assert rc == 2


def test_verify_list(capsys):
    rc = main(["verify", "list"])
    assert rc == 0
    assert "lemma3.4" in capsys.readouterr().out


def test_report_command(tmp_path, capsys):
    main(["verify", "bupu", "--N", "256", "--out", str(tmp_path / "bupu.json")])
    main(["verify", "identify.golden", "--out", str(tmp_path / "golden.json")])
    capsys.readouterr()
    rc = main(["report", "--dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bupu" in out and "identify.golden" in out
    assert "not run" in out  # numeric twins absent in this directory
    assert "R_T42    thm4.2" in out and "R_T51    thm5.1" in out


def test_report_command_empty_dir(tmp_path, capsys):
    rc = main(["report", "--dir", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize(
    "command",
    [
        ["verify", "bupu", "--N", "256", "--out"],
        ["verify", "bupu", "--N", "256", "--format", "csv", "--out"],
        ["stft", "--input", None, "--out"],
    ],
)
def test_output_into_missing_directory_is_usage_error(command, fn_file, tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    argv = [fn_file if c is None else c for c in command] + [str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError") and str(target) in err
    assert not target.parent.exists()


def test_report_missing_directory_is_usage_error(tmp_path, capsys):
    assert main(["report", "--dir", str(tmp_path / "missing")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FileNotFoundError") and "missing" in err


@pytest.mark.parametrize(
    "content",
    [
        '"theorem_id passed"',  # a JSON string
        '["theorem_id", "passed"]',
        "3",
        '{"theorem_id": "thm5.1", "passed": false}',  # no location
    ],
)
def test_report_skips_json_that_is_not_a_report(content, tmp_path, capsys):
    main(["verify", "bupu", "--N", "256", "--out", str(tmp_path / "bupu.json")])
    (tmp_path / "other.json").write_text(content)
    capsys.readouterr()
    assert main(["report", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "bupu" in out and "thm5.1     not run" in out


@pytest.mark.parametrize("command", [["stft", "--out", "tf.json"], ["norm", "--space", "M2,2"]])
def test_oversized_time_frequency_array_is_usage_error(command, tmp_path, capsys, no_array_above_limit):
    path = tmp_path / "f.json"
    save_function(gaussian(GridSpec(2, 8.0, 128)), str(path))  # d=2 N=128: a 4 GiB array
    command = [str(tmp_path / c) if c.endswith(".json") else c for c in command]
    rc = main([command[0], "--input", str(path), *command[1:]])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: the time-frequency array")
    assert not (tmp_path / "tf.json").exists()
