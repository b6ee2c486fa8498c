"""Self-tests of the benchmark's correctness checks.

    python3 perfbench/selftest.py

Each case runs one workload item, confirms that its check accepts the
genuine output, then corrupts a copy of the output (one inner class
dropped, one width changed, one gamma permutation composed with a
transposition, or one rendered number changed) and confirms that the
check rejects it.  Exits 1 if any case does not behave so.  Takes about
20 s, half of it the A7 orbit-stabilizer count.
"""

from __future__ import annotations

import copy
import sys

from run import load_program


def drop_inner_class(summary) -> dict:
    """Remove one inner class, keeping the inner count consistent."""
    s = copy.deepcopy(summary)
    if s["h3"] is not None:
        s["h3"][0].pop()
    else:
        comp = s["components"][0]
        n, size = comp["classes"][0]
        comp["classes"][0] = (n - 1, size - size // n)
    s["inner"] -= 1
    return s


def change_width(summary, path) -> dict:
    s = copy.deepcopy(summary)
    _component(s, path)["widths"][0] += 1
    return s


def twist_gamma(summary, path, which: int) -> dict:
    """Compose gamma_0, gamma_1 or gamma_inf with the transposition (1 2)."""
    s = copy.deepcopy(summary)
    g = _component(s, path)["gammas"][which]
    t = list(range(len(g)))
    t[0], t[1] = 1, 0
    _component(s, path)["gammas"][which] = [t[x] for x in g]
    return s


def drop_reduced_class(summary, level: int) -> dict:
    s = copy.deepcopy(summary)
    s["levels"][level]["components"][0]["degree"] -= 1
    return s


def _component(s, path):
    level, index = path
    comps = s["components"] if level is None else s["levels"][level]["components"]
    return comps[index]


def main() -> int:
    load_program()
    import oracles
    import workloads

    failures = 0

    def case(name: str, genuine: list, corrupted: list) -> None:
        nonlocal failures
        ok = not genuine and bool(corrupted)
        failures += not ok
        print(f"{'ok  ' if ok else 'FAIL'}  {name}")
        if ok:
            print(f"      rejected: {corrupted[0]}")
        else:
            print(f"      genuine errors: {genuine}\n      corrupted errors: {corrupted}")

    def count_check(expect):
        return lambda s: [] if oracles.orbit_total(s) == expect else ["orbit total differs"]

    for wl_name, oracle in (("alternating-a7", workloads._a7_oracle), ("untabled-s7", workloads._s7_oracle)):
        (item,) = workloads.make(wl_name, 0).items
        summary = item.run(False).summary
        check = count_check(oracle())
        case(f"{wl_name}: independent count, inner class dropped", check(summary), check(drop_inner_class(summary)))

    sweep = workloads.make("small-sweep", 0)
    with sweep.run_context():
        runs = {item.name: (item, item.run(False).summary) for item in sweep.items}

    def sweep_item(fragment: str):
        (hit,) = [v for k, v in runs.items() if fragment in k]
        return hit

    item, a4 = sweep_item("A(4) --classes 3+:2,3-:2 --prime 2 --extension SL23")
    case("A4 report: inner class dropped", item.check(a4), item.check(drop_inner_class(a4)))
    case("A4 report: width changed", item.check(a4), item.check(change_width(a4, (None, 1))))
    for which, label in enumerate(("gamma_0", "gamma_1", "gamma_inf")):
        case(
            f"A4 report: {label} composed with a transposition",
            item.check(a4),
            item.check(twist_gamma(a4, (None, 0), which)),
        )

    item, v2 = sweep_item("V2xZ3(2)")
    bad = copy.deepcopy(v2)
    bad["texts"]["json"] = bad["texts"]["json"].replace('"degree": 9', '"degree": 8', 1)
    case("V2xZ3(2) json report: rendered degree changed", item.check(v2), item.check(bad))

    item, dt = sweep_item("D(3),D(9),D(27)")
    case("D(3..27) tower: width changed", item.check(dt), item.check(change_width(dt, (2, 0))))
    case(
        "D(3..27) tower: gamma_inf composed with a transposition",
        item.check(dt),
        item.check(twist_gamma(dt, (1, 0), 2)),
    )
    case(
        "D(3..27) tower: reduced class dropped",
        oracles.check_dihedral_tower(dt, [3, 9, 27], 3, "tower"),
        oracles.check_dihedral_tower(drop_reduced_class(dt, 1), [3, 9, 27], 3, "tower"),
    )

    item, a4t = sweep_item("A(4),SL23")
    unmarked = copy.deepcopy(a4t)
    unmarked["obstructed"] = []
    case("A(4),SL23 tower: obstruction mark removed", item.check(a4t), oracles.check_a4_tower(unmarked, "tower"))

    print(f"-- {failures} case(s) failed" if failures else "-- all cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
