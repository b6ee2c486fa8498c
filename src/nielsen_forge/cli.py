"""Command line driver.

Subcommands: report, orbits, cusps, shinc, genus, classify, lift, screen,
tower, frattini, jennings, verify.  A config file supplies defaults via
'key = value' lines; flags override.  --cap bounds the closures that
build this run's groups; without it NIELSEN_FORGE_CAP, or the default,
applies.
"""

from __future__ import annotations

import argparse
import sys

from .config import RunConfig, load_config_file, parse_class_selector, require_prime
from .errors import ConfigError, ForgeError
from .goldens import KNOWN_DISCREPANCIES, SUITES, run_suite
from .lifting import is_frattini_cover, jennings_dims
from .presets import (
    chain_from_specs,
    direct_product_with_cyclic,
    extension_from_string,
    group_from_string,
)
from .report import render, run_pipeline
from .tower import LevelMap, build_graph, export_json, same_group

PIPELINE_COMMANDS = (
    "report",
    "orbits",
    "cusps",
    "shinc",
    "genus",
    "classify",
    "lift",
    "screen",
)


def _common_options() -> argparse.ArgumentParser:
    """The options shared by the pipeline commands and tower, as a parent."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--group", help='group spec, e.g. "A(4)", "D(9)"')
    common.add_argument("--classes", help='class selectors, e.g. "3+:2,3-:2"')
    common.add_argument("--prime", type=int, help="the prime p")
    common.add_argument("--extension", help="central extension: SL23, SL25, Heis(p)")
    common.add_argument("--r3", action="store_true", help="H3 orbit mode for r = 3")
    common.add_argument("--format", dest="fmt", help="md, json, or csv")
    common.add_argument("--out", help="write the report here instead of stdout")
    common.add_argument("--cap", type=int, help="group-order closure cap")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nielsen-forge",
        description="Braid orbits on Nielsen classes: components, cusps, "
        "genera, lifting invariants, towers.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    common = [_common_options()]
    for name, help_text in (
        ("report", "full pipeline report"),
        ("orbits", "braid orbits only"),
        ("cusps", "cusp widths and types"),
        ("shinc", "sh-incidence matrices"),
        ("genus", "component genera"),
        ("classify", "cusp types"),
        ("lift", "lifting invariants per component"),
        ("screen", "congruence screen verdicts"),
    ):
        subs.add_parser(name, help=help_text, parents=common)
    tower = subs.add_parser("tower", help="level-to-level tower graph", parents=common)
    tower.add_argument("--chain", help='base-first chain, e.g. "D(3),D(9),D(27)"')
    tower.add_argument("--dot", help="write DOT output here")
    frattini = subs.add_parser("frattini", help="Frattini-cover check")
    frattini.add_argument("--config", help="key = value config file")
    frattini.add_argument(
        "--cover",
        help="Heis(p), SL23, SL25, or split:GROUP:p for the G x Z/p projection",
    )
    frattini.add_argument("--cap", type=int)
    jen = subs.add_parser("jennings", help="Loewy layer dimensions")
    jen.add_argument("--p", dest="prime", type=int, required=True)
    jen.add_argument("--n", type=int, required=True)
    verify = subs.add_parser("verify", help="run a golden suite")
    verify.add_argument("--suite", required=True, help=", ".join(sorted(SUITES)))
    return parser


def _load_config(args) -> RunConfig:
    cfg = (
        load_config_file(args.config)
        if getattr(args, "config", None)
        else RunConfig()
    )
    cfg = cfg.merged_with_args(args)
    if cfg.prime:
        cfg.prime = require_prime(cfg.prime, "--prime")
    return cfg


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(text: str, out: str) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _pipeline(cfg: RunConfig):
    if not cfg.group:
        raise ConfigError("missing --group")
    if not cfg.classes:
        raise ConfigError("missing --classes")
    if not cfg.prime:
        raise ConfigError("missing --prime")
    cap = cfg.cap or None
    group, _bundled = group_from_string(cfg.group, cap)
    extension = None
    if cfg.extension:
        extension = extension_from_string(cfg.extension, group, cap)
        if not same_group(extension.G, group):
            raise ConfigError(
                f"extension {cfg.extension} does not cover group {cfg.group}"
            )
        group = extension.G
    C = parse_class_selector(group, cfg.classes)
    if cfg.r3 and C.r != 3:
        raise ConfigError(f"--r3 needs r = 3 classes, got r = {C.r}")
    return run_pipeline(group, C, cfg.prime, extension)


def _focused_markdown(command: str, result) -> str:
    lines = [f"# {command}: {result.group.name}, classes {result.classes.label()}"]
    if result.h3_orbits is not None:
        for i, o in enumerate(result.h3_orbits):
            lift = result.h3_lifts[i] if result.h3_lifts else "-"
            lines.append(f"- H3 orbit {i + 1}: size {o.size}, lift {lift}")
        return "\n".join(lines) + "\n"
    for d in result.dossiers:
        if command == "orbits":
            lines.append(f"- component {d.orbit_number}: degree {d.degree}")
        elif command in ("cusps", "classify"):
            lines.append(f"- component {d.orbit_number} (degree {d.degree}):")
            for c in d.cusps:
                lines.append(f"    {c.label}: width {c.width}, {c.ctype.label()}")
        elif command == "shinc":
            lines.append(f"- component {d.orbit_number}:")
            lines.append("    labels " + ", ".join(d.sh_matrix.labels))
            for row in d.sh_matrix.matrix:
                lines.append("    " + "  ".join(f"{v:2d}" for v in row))
        elif command == "genus":
            gd = d.genus_data
            lines.append(
                f"- component {d.orbit_number}: degree {d.degree}, genus {d.genus} "
                f"(ind = {gd.ind_gamma_0}+{gd.ind_gamma_1}+{gd.ind_gamma_inf})"
            )
        elif command == "lift":
            lines.append(
                f"- component {d.orbit_number}: lifting invariant {d.lift}"
            )
        elif command == "screen":
            s = d.screen
            match = f" [{', '.join(s.matches)}]" if s.matches else ""
            lines.append(
                f"- component {d.orbit_number}: N = {s.level}, {s.verdict}{match} "
                f"-- {s.reason}"
            )
    return "\n".join(lines) + "\n"


def _cmd_pipeline(command: str, args) -> int:
    cfg = _load_config(args)
    result = _pipeline(cfg)
    fmt = cfg.fmt or "md"
    if command == "report" or fmt in ("json", "csv"):
        text = render(result, fmt)
    else:
        text = _focused_markdown(command, result)
    _emit(text, cfg.out)
    return 0


def _cmd_tower(args) -> int:
    cfg = _load_config(args)
    if not cfg.chain:
        raise ConfigError("missing --chain")
    if not cfg.classes or not cfg.prime:
        raise ConfigError("tower needs --classes and --prime")
    base, homs = chain_from_specs(
        [s.strip() for s in cfg.chain.split(",")], cfg.cap or None
    )
    C = parse_class_selector(base, cfg.classes)
    chain = [LevelMap(h, cfg.prime) for h in homs]
    graph = build_graph(chain, C, cfg.prime)
    if cfg.dot:
        _write(cfg.dot, graph.to_dot())
    if (cfg.fmt or "json") == "json":
        _emit(export_json(graph), cfg.out)
    else:
        lines = [f"# tower over {base.name}, p = {cfg.prime}"]
        for k, lv in enumerate(graph.levels):
            comps = ", ".join(
                f"deg {d.degree}/g {d.genus}" for d in lv.dossiers
            )
            lines.append(f"- level {k} ({lv.group.name}): {comps}")
        for k, i in graph.obstructed:
            lines.append(f"- obstructed: level {k} component {i + 1}")
        fp1 = all(c.ok for c in graph.width_growth_checks)
        fp2 = all(c.covered for c in graph.persistence_checks)
        lines.append(f"- width growth on p-cusp edges: {'ok' if fp1 else 'VIOLATED'}")
        lines.append(f"- g-p' persistence: {'ok' if fp2 else 'VIOLATED'}")
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


def _cmd_frattini(args) -> int:
    cfg = _load_config(args)
    if not cfg.cover:
        raise ConfigError("missing --cover")
    text, cap = cfg.cover.strip(), cfg.cap or None
    if text.startswith("split:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"expected split:GROUP:p, got {text!r}")
        p = require_prime(parts[2], "the p of split:GROUP:p")
        group, _ = group_from_string(parts[1], cap)
        proj = direct_product_with_cyclic(group, p, cap)
        verdict = is_frattini_cover(proj)
        label = f"{group.name} x Z/{parts[2]} -> {group.name}"
    else:
        ext = extension_from_string(text, cap=cap)
        verdict = is_frattini_cover(ext.proj)
        label = f"{ext.R.name} -> {ext.G.name}"
    print(f"{label}: {'Frattini' if verdict else 'not Frattini'}")
    return 0


def _cmd_jennings(args) -> int:
    if args.n < 1:
        raise ConfigError(f"--n must be at least 1, got {args.n}")
    prof = jennings_dims(require_prime(args.prime, "--p"), args.n)
    print(
        f"Loewy dims for (Z/{prof.p})^{prof.n}: {list(prof.dims)} "
        f"(sum {prof.total}, palindromic {prof.is_palindromic})"
    )
    return 0


def _cmd_verify(args) -> int:
    checks = run_suite(args.suite)
    width = max(len(c.name) for c in checks)
    failures = 0
    for c in checks:
        status = "pass" if c.ok else "FAIL"
        note = ""
        if not c.ok and c.name in KNOWN_DISCREPANCIES:
            note = "  (documented discrepancy; see README)"
        print(f"{c.name:<{width}}  {status}  {c.detail}{note}")
        if not c.ok:
            failures += 1
    print(f"-- {len(checks) - failures}/{len(checks)} checks pass")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in PIPELINE_COMMANDS:
            return _cmd_pipeline(args.command, args)
        if args.command == "tower":
            return _cmd_tower(args)
        if args.command == "frattini":
            return _cmd_frattini(args)
        if args.command == "jennings":
            return _cmd_jennings(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise ConfigError(f"unknown command {args.command}")
    except ForgeError as exc:
        print(f"error[{type(exc).__name__}:{exc.code}]: {exc}", file=sys.stderr)
        return exc.code
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
