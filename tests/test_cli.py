import json
import re

import pytest

from nielsen_forge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_report_a4(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        "--group",
        "A(4)",
        "--classes",
        "3+:2,3-:2",
        "--prime",
        "2",
        "--extension",
        "SL23",
    )
    assert code == 0
    assert "degree 9, genus 0" in out
    assert "degree 6, genus 0" in out
    assert "lifting invariant: -1" in out


def test_report_json_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "report",
        "--group",
        "A(4)",
        "--classes",
        "3+:2,3-:2",
        "--prime",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1"
    assert [c["degree"] for c in doc["components"]] == [9, 6]
    assert doc["components"][0]["genus"]["provenance"]["formula"].startswith("2(deg")


def test_reports_are_deterministic(capsys):
    args = (
        "report",
        "--group",
        "D(9)",
        "--classes",
        "2:4",
        "--prime",
        "3",
        "--format",
        "json",
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_empty_class_spec_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "report", "--group", "A(4)", "--classes", "", "--prime", "2"
    )
    assert code != 0
    assert "error" in err


def test_unknown_suite_is_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nope")
    assert code != 0


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "frattini")
    assert code == 0
    assert "pass" in out


def test_orbit_and_width_commands(capsys):
    code, out, _ = run_cli(
        capsys, "orbits", "--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "2"
    )
    assert code == 0 and "component 1: degree 9" in out
    code, out, _ = run_cli(
        capsys, "cusps", "--group", "D(9)", "--classes", "2:4", "--prime", "3"
    )
    assert code == 0 and "width 9" in out


def test_tower_command(capsys, tmp_path):
    dot = tmp_path / "tower.dot"
    code, out, _ = run_cli(
        capsys,
        "tower",
        "--chain",
        "D(3),D(9)",
        "--classes",
        "2:4",
        "--prime",
        "3",
        "--format",
        "json",
        "--dot",
        str(dot),
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["levels"]) == 2
    assert dot.read_text().startswith("digraph")


def test_tower_double_cover_chain(capsys):
    code, out, _ = run_cli(
        capsys,
        "tower",
        "--chain",
        "A(4),SL23",
        "--classes",
        "3+:2,3-:2",
        "--prime",
        "2",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert [lv["order"] for lv in doc["levels"]] == [12, 24]
    assert {o["component"] for o in doc["obstructed"]} == {1}


def test_jennings_and_frattini(capsys):
    code, out, _ = run_cli(capsys, "jennings", "--p", "3", "--n", "2")
    assert code == 0 and "[1, 2, 3, 2, 1]" in out
    code, out, _ = run_cli(capsys, "frattini", "--cover", "SL23")
    assert code == 0 and "Frattini" in out
    code, out, _ = run_cli(capsys, "frattini", "--cover", "split:A(4):3")
    assert code == 0 and "not Frattini" in out


def test_out_file_and_focused_commands(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, printed, _ = run_cli(
        capsys,
        "report",
        "--group",
        "A(4)",
        "--classes",
        "3+:2,3-:2",
        "--prime",
        "2",
        "--format",
        "json",
        "--out",
        str(out),
    )
    assert code == 0 and printed == ""
    assert json.loads(out.read_text())["reduced_classes"] == 15
    code, text, _ = run_cli(
        capsys, "shinc", "--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "2"
    )
    assert code == 0 and "labels O_{1,1}" in text
    code, text, _ = run_cli(
        capsys, "genus", "--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "2"
    )
    assert code == 0 and "genus 0" in text
    code, text, _ = run_cli(
        capsys,
        "screen",
        "--group",
        "A(4)",
        "--classes",
        "3+:2,3-:2",
        "--prime",
        "2",
        "--extension",
        "SL23",
    )
    assert code == 0 and "fails" in text


def test_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# golden A4 run\n"
        "group = A(4)\n"
        "classes = 3+:2,3-:2\n"
        "prime = 2\n"
        "format = json\n"
    )
    code, out, _ = run_cli(capsys, "report", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["prime"] == 2


def test_config_file_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("grp = A(4)\n")
    code, _, err = run_cli(capsys, "report", "--config", str(cfg))
    assert code != 0


def test_cap_env_flag(capsys, monkeypatch):
    # monkeypatch records the pre-test state and undoes the CLI's override
    monkeypatch.setenv("NIELSEN_FORGE_CAP", "200000")
    code, _, err = run_cli(
        capsys,
        "report",
        "--group",
        "A(5)",
        "--classes",
        "3:4",
        "--prime",
        "2",
        "--cap",
        "10",
    )
    assert code != 0
    assert "ClosureExceedsCap" in err


def test_cap_flag_holds_for_one_run_only(capsys, monkeypatch):
    import os

    report = ("report", "--group", "A(5)", "--classes", "3:4", "--prime", "2")
    monkeypatch.delenv("NIELSEN_FORGE_CAP", raising=False)
    code, _, err = run_cli(capsys, *report, "--cap", "10")
    assert code != 0 and "ClosureExceedsCap" in err
    assert "NIELSEN_FORGE_CAP" not in os.environ
    code, _, _ = run_cli(capsys, *report)
    assert code == 0
    # the environment still sets the default cap
    monkeypatch.setenv("NIELSEN_FORGE_CAP", "10")
    code, _, err = run_cli(capsys, *report)
    assert code != 0 and "ClosureExceedsCap" in err


def test_cap_flag_overrides_low_env_cap(capsys, monkeypatch):
    # closures inside an enumerated group (pair subgroups of classify_cusp,
    # the Frattini test, quotients) are bounded by |G|, not by the env cap
    monkeypatch.setenv("NIELSEN_FORGE_CAP", "20")
    code, out, err = run_cli(
        capsys, "report", "--group", "A(5)", "--classes", "3:4", "--prime", "2",
        "--cap", "100000",
    )
    assert code == 0, err
    assert "ClosureExceedsCap" not in err
    code, out, err = run_cli(
        capsys, "report", "--group", "A(4)", "--classes", "3+:2,3-:2",
        "--prime", "2", "--extension", "SL23", "--cap", "100000",
    )
    assert code == 0, err
    assert "lifting invariant: -1" in out


def test_invalid_custom_extension_is_a_typed_error(capsys):
    report = ("report", "--group", "D(3)", "--classes", "2:4", "--prime", "3")
    bad = {
        # the kernel has order 2, not a power of 3
        "R=D(6); images=(1 2 3),(2 3); kernel=(1 4)(2 5)(3 6); p=3": (
            "NotPGroupKernel", 40
        ),
        # the reflections of D(9) invert the kernel
        "R=D(9); images=(1 2 3),(2 3); kernel=(1 4 7)(2 5 8)(3 6 9); p=3": (
            "ConfigError", 2
        ),
    }
    for spec, (name, exit_code) in bad.items():
        code, _, err = run_cli(capsys, *report, "--extension", spec)
        assert code == exit_code
        assert f"error[{name}:{exit_code}]" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "images,kernel,name,exit_code",
    [
        # (1 2) is odd, so it is no image in A(4)
        ("(1 2),(2 3 4)", "(1 2)", "NotAHomomorphism", 11),
        # the projection is fine; (1 2) is not in SL23's regular action
        ("(1 2)(3 4),(2 3 4)", "(1 2)", "ConfigError", 2),
    ],
    ids=["image-outside-target", "kernel-outside-R"],
)
def test_extension_permutation_outside_its_group(
    capsys, images, kernel, name, exit_code
):
    code, _, err = run_cli(
        capsys, "report", "--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "2",
        "--extension", f"R=SL23; images={images}; kernel={kernel}; p=2",
    )
    assert code == exit_code
    assert err.startswith(f"error[{name}:{exit_code}]")
    assert "(1 2)" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "A(4)", "--classes", "(1 9):4", "--prime", "2"),
        ("--group", "A(4)", "--classes", "(1 2 x):4", "--prime", "2"),
        ("--group", "custom[(1 2)(2 3)]", "--classes", "2:3", "--prime", "2"),
        (
            "--group", "D(3)", "--classes", "2:4", "--prime", "3", "--extension",
            "R=D(6); images=(1 2 3),(2 9); kernel=(1 4)(2 5)(3 6); p=3",
        ),
        ("--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "2", "--r3"),
    ],
    ids=["point-past-degree", "non-integer-point", "overlapping-cycles",
         "bad-extension-image", "r3-with-r4"],
)
def test_bad_input_is_a_config_error(capsys, argv):
    code, _, err = run_cli(capsys, "report", *argv)
    assert code == 2
    assert re.match(r"error\[(ConfigError|BadPermutation):2\]", err)
    assert "Traceback" not in err


def _cli_subprocess(*argv):
    # a subprocess with a timeout, so that a validation regression that
    # lets a bad prime through fails the test instead of hanging it
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run(
        [sys.executable, "-m", "nielsen_forge.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("tower", "--chain", "D(3),D(9)", "--classes", "2:4", "--prime", "1"),
        ("report", "--group", "D(9)", "--classes", "2:4", "--prime", "1"),
        ("report", "--group", "D(9)", "--classes", "2:4", "--prime", "4"),
    ],
)
def test_non_prime_prime_is_a_config_error(argv):
    out = _cli_subprocess(*argv)
    assert out.returncode == 2
    assert "error[ConfigError:2]" in out.stderr
    assert "must be a prime" in out.stderr
    assert out.stdout == ""


def test_every_prime_the_cli_reads_is_checked(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('group = "D(9)"\nclasses = 2:4\nprime = 6\n')
    custom = "R=D(9); images=(1 2 3),(2 3); kernel=(1 4 7)(2 5 8)(3 6 9); p=9"
    cases = [
        ("jennings", "--p", "4", "--n", "2"),
        ("jennings", "--p", "1", "--n", "2"),
        ("jennings", "--p", "3", "--n", "0"),
        ("frattini", "--cover", "split:A(4):4"),
        ("frattini", "--cover", "split:A(4)"),
        ("frattini", "--cover", "Heis(4)"),
        ("report", "--config", str(cfg)),
        ("report", "--group", "D(3)", "--classes", "2:4", "--prime", "3",
         "--extension", custom),
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error[ConfigError:2]" in err, argv
        assert out == ""


@pytest.mark.parametrize("case", ["config", "out", "dot", "suite"])
def test_bad_path_or_suite_is_a_config_error(capsys, tmp_path, case):
    missing = tmp_path / "no-such-dir"
    chain = ("tower", "--chain", "D(3),D(9)", "--classes", "2:4", "--prime", "3")
    argv, named = {
        "config": (("report", "--config", str(missing / "run.cfg")), str(missing)),
        "out": (
            ("report", "--group", "D(9)", "--classes", "2:4", "--prime", "3",
             "--out", str(missing / "r.md")),
            str(missing),
        ),
        "dot": (chain + ("--dot", str(missing / "t.dot")), str(missing)),
        "suite": (("verify", "--suite", "nosuch"), "dihedral-towers"),
    }[case]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error[ConfigError:2]")
    assert named in err
