import argparse
import json
import re

import pytest

from nielsen_forge.cli import COMMANDS, PIPELINE_COMMANDS, build_parser, main


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


@pytest.mark.parametrize(
    "source, value",
    [("flag", "0"), ("flag", "-5"), ("config", "0"), ("config", "-5"),
     ("env", "0"), ("env", "-5"), ("env", "abc")],
)
def test_a_cap_that_is_not_a_positive_integer_is_a_config_error(
    capsys, monkeypatch, tmp_path, source, value
):
    report = ["report", "--group", "A(5)", "--classes", "3:4", "--prime", "2"]
    monkeypatch.delenv("NIELSEN_FORGE_CAP", raising=False)
    cfg = tmp_path / "run.cfg"
    named = {"flag": "--cap", "config": f"{cfg}:1: cap", "env": "NIELSEN_FORGE_CAP"}
    if source == "flag":
        report += ["--cap", value]
    elif source == "config":
        cfg.write_text(f"cap = {value}\n")
        report += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("NIELSEN_FORGE_CAP", value)
    code, out, err = run_cli(capsys, *report)
    assert code == 2 and out == ""
    assert err.startswith("error[ConfigError:2]")
    assert f"{named[source]} must be a positive integer" in err


@pytest.mark.parametrize("key", ["suite = all", "n = 3"])
def test_config_keys_no_command_reads_are_unknown(capsys, tmp_path, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f'group = "A(4)"\n{key}\n')
    code, _, err = run_cli(capsys, "report", "--config", str(cfg))
    assert code == 2
    assert f"{cfg}:2: unknown key" in err


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
    "group,classes,prime,extension",
    [
        # the lift of the component itself: its entries have order 3 = p
        (
            "custom[(1 2 3)(4 5 6)(7 8 9),(1 4 7)(2 5 8)(3 6 9)]",
            "(1 2 3)(4 5 6)(7 8 9):2,(1 4 7)(2 5 8)(3 6 9):1,"
            "(1 8 6)(2 9 4)(3 7 5):1",
            "3",
            "Heis(3)",
        ),
        # the lift of a cusp's pairs: the involutions have order 2 = p
        ("A(4)", "2:2,3+:1,3-:1", "2", "SL23"),
    ],
    ids=["heis3-component", "sl23-cusp"],
)
def test_a_lift_of_entries_that_are_not_p_prime_is_an_error(
    capsys, group, classes, prime, extension
):
    code, out, err = run_cli(
        capsys, "report", "--group", group, "--classes", classes,
        "--prime", prime, "--extension", extension,
    )
    assert code == 30
    assert "error[OrderNotPrime:30]" in err
    assert out == ""


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


def test_a_group_that_is_no_cover_is_a_config_error(capsys):
    # A(10) is past the closure cap: it is refused before it is built
    code, _, err = run_cli(
        capsys, "report", "--group", "A(4)", "--classes", "3+:2,3-:2",
        "--prime", "2", "--extension", "A(10)",
    )
    assert code == 2
    assert "error[ConfigError:2]: no central extension named 'A(10)'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--group", "A(4)", "--classes", "(1 9):4", "--prime", "2"),
        ("report", "--group", "A(4)", "--classes", "(1 2 x):4", "--prime", "2"),
        ("report", "--group", "custom[(1 2)(2 3)]", "--classes", "2:3", "--prime", "2"),
        (
            "report", "--group", "D(3)", "--classes", "2:4", "--prime", "3",
            "--extension", "R=D(6); images=(1 2 3),(2 9); kernel=(1 4)(2 5)(3 6); p=3",
        ),
        ("report", "--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "2", "--r3"),
        # SL23 is an extension for p = 2 only
        ("report", "--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "3",
         "--extension", "SL23"),
        ("lift", "--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "5",
         "--extension", "SL23"),
        ("report", "--classes", "2:4", "--prime", "3"),
        ("report", "--group", "D(9)", "--classes", "2:4"),
        ("report", "--group", "D(9)", "--classes", "2:4", "--prime", "3",
         "--extension", "Heis(3)"),
        ("tower", "--classes", "2:4", "--prime", "3"),
        ("tower", "--chain", "D(3),D(9)", "--prime", "3"),
        ("tower", "--chain", "D(3),D(9)", "--classes", "2:4"),
        ("tower", "--chain", "D(3),D(9)", "--classes", "2:3", "--prime", "3"),
        ("frattini",),
    ],
    ids=["point-past-degree", "non-integer-point", "overlapping-cycles",
         "bad-extension-image", "r3-with-r4", "extension-prime-3", "extension-prime-5",
         "missing-group", "missing-prime", "extension-not-over-group",
         "missing-chain", "tower-missing-classes", "tower-missing-prime",
         "tower-r3", "frattini-missing-cover"],
)
def test_bad_input_is_a_config_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert re.match(r"error\[(ConfigError|BadPermutation):2\]", err)
    assert "Traceback" not in err


def test_an_internal_key_error_is_not_a_usage_error(monkeypatch):
    # only a ForgeError maps to an exit code; any other exception is a
    # fault in the program and surfaces as one
    import nielsen_forge.cli as cli

    def broken(suite):
        raise KeyError(suite)

    monkeypatch.setattr(cli, "run_suite", broken)
    with pytest.raises(KeyError):
        main(["verify", "--suite", "jennings"])


D9_ARGS = ("--group", "D(9)", "--classes", "2:4", "--prime", "3")
TOWER_ARGS = ("--chain", "D(3),D(9)", "--classes", "2:4", "--prime", "3")
BAD_FORMATS = [
    *(
        (source, command, "bogus")
        for source in ("flag", "config")
        for command in (*PIPELINE_COMMANDS, "tower")
    ),
    # an empty --format leaves the default, an empty format = names none
    ("config", "genus", ""),
    ("config", "tower", ""),
]


@pytest.mark.parametrize("source, command, fmt", BAD_FORMATS)
def test_every_command_checks_its_format(capsys, tmp_path, source, command, fmt):
    # md, json or csv, from the flag or a config file alike
    args = TOWER_ARGS if command == "tower" else D9_ARGS
    if source == "flag":
        args += ("--format", fmt)
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"format = {fmt}\n")
        args += ("--config", str(cfg))
    code, out, err = run_cli(capsys, command, *args)
    assert (code, out) == (2, "")
    assert err == f"error[ConfigError:2]: unknown format {fmt!r} (choose md, json, csv)\n"


def test_tower_prints_its_markdown_summary_for_csv(capsys):
    # the small-sweep benchmark runs one tower job with --format csv
    md = run_cli(capsys, "tower", *TOWER_ARGS, "--format", "md")
    assert md[0] == 0 and md[1].startswith("# tower over D3")
    assert run_cli(capsys, "tower", *TOWER_ARGS, "--format", "csv") == md


@pytest.mark.parametrize(
    "option", [("--group", "D(3)"), ("--extension", "SL23"), ("--r3",)], ids=" ".join
)
def test_tower_has_no_pipeline_only_options(capsys, option):
    with pytest.raises(SystemExit) as exc:
        main(["tower", *TOWER_ARGS, *option])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(option) in capsys.readouterr().err


def test_tower_reads_a_config_file_shared_with_the_pipeline(capsys, tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("group = D(9)\nextension = SL23\nr3 = true\nformat = json\n")
    code, out, _ = run_cli(capsys, "tower", *TOWER_ARGS, "--config", str(cfg))
    assert code == 0
    assert len(json.loads(out)["levels"]) == 2


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


@pytest.mark.parametrize("source", ["flag 0", "flag -3", "config 0", "config -5"])
def test_a_given_prime_below_two_is_not_a_missing_prime(capsys, tmp_path, source):
    kind, value = source.split()
    argv = ["report", "--group", "D(9)", "--classes", "2:4"]
    if kind == "flag":
        argv += ["--prime", value]
        named = "--prime"
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"prime = {value}\n")
        argv += ["--config", str(cfg)]
        named = f"{cfg}:1: prime"
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error[ConfigError:2]: {named} must be a prime, got {value}\n"


# help and error texts, one valid argv per command, and their bad options
PARSER_ARGVS = [
    [], ["-h"], ["bogus"], ["--bogus"],
    *([command, "-h"] for command in COMMANDS),
    *([command, "--bogus"] for command in COMMANDS),
    *([command, "--group", "A(4)", "--classes", "3+:2", "--prime", "2", "--r3",
       "--format", "csv", "--cap", "9"] for command in PIPELINE_COMMANDS),
    ["report", "extra"],
    ["report", "--group", "D(9)", "--classes", "2:4", "--prime", "x"],
    ["tower", "--chain", "D(3),D(9)", "--dot", "t.dot", "--prime", "3"],
    ["frattini", "--cover", "SL23", "--cap", "100"],
    ["jennings", "--p", "3", "--n", "2"], ["jennings", "--p", "3"],
    ["verify", "--suite", "a5"], ["verify"],
]


def _parsed(capsys, parser, argv):
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_the_one_command_parser_parses_as_the_full_one(capsys, argv):
    command = argv[0] if argv else None
    assert _parsed(capsys, build_parser(command), argv) == _parsed(
        capsys, build_parser(), argv
    )


def test_a_run_builds_the_top_level_parser_and_one_subcommand(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _, _ = run_cli(
        capsys, "report", "--group", "A(4)", "--classes", "3+:2,3-:2", "--prime", "2"
    )
    assert code == 0
    assert built == ["nielsen-forge", "nielsen-forge report"]


@pytest.mark.parametrize("args", [["--help"], ["report"]])
def test_the_ladder_script_refuses_arguments_without_running(args):
    # scripts/ladder.py takes no arguments; a run of its entries takes
    # minutes, so a refusal must come back at once
    import subprocess
    import sys
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "ladder.py"
    out = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: python scripts/ladder.py")
