"""Run configuration: class-selector grammar and key/value config files.

Class selectors pick conjugacy classes by element order, "ORDER[+|-]:MULT",
where +/- split power-inequivalent classes of the same order by their
least canonical representative; explicit cycle-notation representatives
are accepted in place of the order.  Example: "3+:2,3-:2" or "2:4" or
"(1 2 3):2".
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from pathlib import Path

from . import perm as P
from .errors import ConfigError
from .groups import ConjClass, FiniteGroup
from .nielsen import ClassMultiset


def require_prime(value, what: str) -> int:
    """value as an int, or ConfigError unless it is a prime.

    Every prime read from the command line, a config file or a spec string
    passes through here.
    """
    try:
        p = int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} must be a prime, got {value!r}") from exc
    if p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise ConfigError(f"{what} must be a prime, got {p}")
    return p


def parse_class_selector(group: FiniteGroup, text: str) -> ClassMultiset:
    entries = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"selector {part!r} needs ':MULT'")
        head, _, mult_text = part.rpartition(":")
        head = head.strip()
        try:
            mult = int(mult_text)
        except ValueError as exc:
            raise ConfigError(f"bad multiplicity in {part!r}") from exc
        entries.append((_resolve_class(group, head), mult))
    if not entries:
        raise ConfigError("empty class spec")
    return ClassMultiset(entries)


def _resolve_class(group: FiniteGroup, head: str) -> ConjClass:
    if head.startswith("("):
        rep = P.parse(head, group.degree)
        if rep not in group:
            raise ConfigError(f"representative {head!r} is not in the group")
        return group.class_of(group.id_of(rep))
    sign = ""
    if head and head[-1] in "+-":
        head, sign = head[:-1], head[-1]
    try:
        order = int(head)
    except ValueError as exc:
        raise ConfigError(f"bad class order {head!r}") from exc
    matches = [
        c for c in group.conjugacy_classes() if c.element_order == order
    ]
    matches.sort(key=lambda c: c.member_ids[0])
    if not matches:
        raise ConfigError(f"no class of element order {order}")
    if not sign:
        if len(matches) > 1:
            raise ConfigError(
                f"{len(matches)} classes have order {order}; disambiguate "
                "with +/- or an explicit representative"
            )
        return matches[0]
    index = 0 if sign == "+" else 1
    if index >= len(matches):
        raise ConfigError(f"no '{sign}' class of order {order}")
    return matches[index]


@dataclass
class RunConfig:
    """Everything one pipeline invocation needs."""

    group: str = ""
    classes: str = ""
    prime: int = 0
    extension: str = ""
    chain: str = ""
    suite: str = ""
    fmt: str = "md"
    out: str = ""
    dot: str = ""
    cap: int = 0
    r3: bool = False
    cover: str = ""
    n: int = 0

    def merged_with_args(self, args) -> "RunConfig":
        for name in vars(self):
            val = getattr(args, name, None)
            if val not in (None, "", 0, False):
                setattr(self, name, val)
        return self


_INT_KEYS = {"prime", "cap", "n"}
_BOOL_KEYS = {"r3"}


def load_config_file(path: str | Path) -> RunConfig:
    """Parse 'key = value' lines; '#' starts a comment."""
    cfg = RunConfig()
    known = set(vars(cfg))
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip().strip('"')
        if key == "format":
            key = "fmt"
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in _INT_KEYS:
            try:
                setattr(cfg, key, int(value))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad integer") from exc
        elif key in _BOOL_KEYS:
            setattr(cfg, key, value.lower() in ("1", "true", "yes"))
        else:
            setattr(cfg, key, value)
    return cfg
