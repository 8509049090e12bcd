"""Divergent build-environment profiles for adversarial rebuilding.

A :class:`VariationProfile` bundles every controlled source of variation:
clock hint, locale, timezone, filesystem ordering, build path, hostname,
username, umask, and an optional ``SOURCE_DATE_EPOCH``. It is the only record
of them: the build environment is derived from its fields, so a profile with
one knob replaced yields an environment with exactly that knob changed. The
default pair disagrees on every single knob, so a build that is bit-for-bit
identical under both has demonstrated insensitivity to all of them at once.

Variation is delivered through an environment contract rather than by faking
the kernel: cooperating builds read ``REPRO_EPOCH`` for the clock,
``REPRO_FS_ORDER`` for directory-walk order, and the usual ``TZ`` and
``LC_ALL`` for rendering. The staged source tree is additionally *copied* in
the profile's ordering, emulating an ordering-hostile filesystem.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ParseError, StructuralError, ValidationError

#: Fixed reference instant all relative clock offsets are applied to.
BASE_EPOCH = 1_600_000_000

#: 547.875 days, the "second build runs a year and a half later" offset.
CLOCK_SKEW_SECONDS = 47_336_400

_U64 = 0xFFFFFFFFFFFFFFFF


# -- filesystem ordering ----------------------------------------------------


class FsOrdering:
    """Base for the three directory-walk orders. Use the subclasses."""

    def token(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Forward(FsOrdering):
    def token(self) -> str:
        return "forward"


@dataclass(frozen=True)
class Reverse(FsOrdering):
    def token(self) -> str:
        return "reverse"


@dataclass(frozen=True)
class Shuffled(FsOrdering):
    seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.seed <= _U64:
            raise ValidationError("shuffle seed must fit in 64 bits")

    def token(self) -> str:
        return f"shuffled:{self.seed}"


def ordering_from_token(token: str) -> FsOrdering:
    if token == "forward":
        return Forward()
    if token == "reverse":
        return Reverse()
    if token.startswith("shuffled:"):
        seed_s = token[len("shuffled:"):]
        if not seed_s.isdigit():
            raise ParseError(f"bad shuffle seed in {token!r}")
        return Shuffled(int(seed_s))
    raise ParseError(f"unknown ordering token {token!r}")


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _U64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return state, z ^ (z >> 31)


def deterministic_shuffle(items, seed: int) -> list:
    """Seeded Fisher-Yates permutation, stable across platforms and runs."""
    out = list(items)
    state = seed & _U64
    for i in range(len(out) - 1, 0, -1):
        state, word = _splitmix64(state)
        j = word % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def ordered_entries(directory: Path | str, ordering: FsOrdering) -> list[str]:
    """Names in ``directory`` in the profile's order, never the system order.

    Forward is bytewise ascending, Reverse descending, Shuffled a seeded
    permutation of the ascending list.
    """
    names = sorted(os.listdir(directory), key=lambda n: n.encode())
    if isinstance(ordering, Forward):
        return names
    if isinstance(ordering, Reverse):
        return list(reversed(names))
    if isinstance(ordering, Shuffled):
        return deterministic_shuffle(names, ordering.seed)
    raise ValidationError(f"unknown ordering {ordering!r}")


# -- profiles ---------------------------------------------------------------


@dataclass(frozen=True)
class VariationProfile:
    """Every knob of one build's variation; :attr:`env` is derived from them."""

    name: str
    clock_skew_seconds: int
    build_path_component: str
    fs_ordering: FsOrdering
    umask: int
    locale: str
    timezone: str
    hostname: str
    username: str
    source_date_epoch: int | None = None

    def __post_init__(self) -> None:
        component = self.build_path_component
        if not component or "/" in component or "\\" in component or component in (".", ".."):
            raise ValidationError("build_path_component must be a single path segment")

    @property
    def env(self) -> dict[str, str]:
        """The exact environment a build under this profile receives."""
        env = {
            "TZ": self.timezone,
            "LC_ALL": self.locale,
            "LANG": self.locale,
            "HOSTNAME": self.hostname,
            "USER": self.username,
            "UMASK": format(self.umask, "03o"),
            "REPRO_EPOCH": str(BASE_EPOCH + self.clock_skew_seconds),
            "REPRO_FS_ORDER": self.fs_ordering.token(),
        }
        if self.source_date_epoch is not None:
            env["SOURCE_DATE_EPOCH"] = str(self.source_date_epoch)
        return env


@dataclass(frozen=True)
class BuildRequest:
    source_dir: Path
    build_entry: str
    output_subdir: str
    timeout_seconds: int = 300


@dataclass(frozen=True)
class PreparedBuild:
    workdir: Path
    env: dict[str, str]
    profile: VariationProfile


def default_profiles() -> tuple[VariationProfile, VariationProfile]:
    """The stock adversarial pair: a calm baseline and a hostile twin.

    The second profile differs from the first in every knob: clock pushed
    eighteen months ahead, French locale, a UTC+14 timezone, reversed
    filesystem order, a much longer build path, different hostname, user,
    and umask. Only the first exports SOURCE_DATE_EPOCH, so builds that
    depend on its presence get exercised both ways.
    """
    first = VariationProfile(
        name="baseline",
        clock_skew_seconds=0,
        build_path_component="build-1st",
        fs_ordering=Forward(),
        umask=0o022,
        locale="C",
        timezone="UTC",
        hostname="alpha",
        username="builder-a",
        source_date_epoch=0,
    )
    second = VariationProfile(
        name="divergent",
        clock_skew_seconds=CLOCK_SKEW_SECONDS,
        build_path_component="build-2nd-with-a-much-longer-name",
        fs_ordering=Reverse(),
        umask=0o077,
        locale="fr_FR.UTF-8",
        timezone="Pacific/Kiritimati",
        hostname="beta",
        username="builder-b",
    )
    return first, second


def read_settings(path: Path | str) -> list[tuple[str, str, int]]:
    """The ``(key, value, line_no)`` settings of a ``key = value`` file.

    Blank lines and lines starting with ``#`` are skipped. Every other line
    splits at its first ``=``, and the key and value are stripped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    settings = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError("expected 'key=value'", line_no)
        settings.append((key.strip(), value.strip(), line_no))
    return settings


#: Knobs whose text is not used as-is; every other knob is a plain string.
_KNOB_PARSERS = {
    "clock_skew_seconds": int,
    "fs_ordering": ordering_from_token,
    "umask": lambda text: int(text, 8),
    "source_date_epoch": int,
}


def load_profile(path: Path | str) -> VariationProfile:
    """Read a profile from a ``knob = value`` settings file.

    Every :class:`VariationProfile` field is a knob, and all but
    ``source_date_epoch`` are required; ``umask`` is octal, ``fs_ordering``
    uses the forward / reverse / shuffled:<seed> tokens.
    """
    knobs = {field.name: field for field in fields(VariationProfile)}
    values: dict[str, object] = {}
    for key, text, line_no in read_settings(path):
        if key not in knobs:
            raise ParseError(f"unknown knob {key!r}", line_no)
        if key in values:
            raise ParseError(f"duplicate knob {key!r}", line_no)
        try:
            values[key] = _KNOB_PARSERS.get(key, str)(text)
        except ValueError as err:
            raise ParseError(f"bad numeric knob: {err}", line_no) from None
    missing = sorted(
        name for name, field in knobs.items()
        if field.default is MISSING and name not in values
    )
    if missing:
        raise ParseError(f"missing knobs: {', '.join(missing)}")
    return VariationProfile(**values)


# -- staging ----------------------------------------------------------------


def validate_request(req: BuildRequest) -> None:
    entry = Path(req.source_dir) / req.build_entry
    if not entry.is_file():
        raise ValidationError(f"build entry not found: {entry}")
    if not os.access(entry, os.X_OK):
        raise ValidationError(f"build entry not executable: {entry}")
    if Path(req.output_subdir).is_absolute():
        raise ValidationError("output_subdir must be relative")
    if req.timeout_seconds <= 0:
        raise ValidationError("timeout_seconds must be positive")


def _copy_tree_ordered(src: Path, dst: Path, ordering: FsOrdering) -> None:
    for name in ordered_entries(src, ordering):
        child = src / name
        target = dst / name
        if child.is_symlink():
            raise StructuralError(f"symlink not supported in source tree: {child}")
        if child.is_dir():
            target.mkdir()
            _copy_tree_ordered(child, target, ordering)
        elif child.is_file():
            shutil.copy(child, target)
        else:
            raise StructuralError(f"unsupported file type: {child}")


def apply_profile(
    profile: VariationProfile, req: BuildRequest, staging_root: Path | str
) -> PreparedBuild:
    """Stage the source under the profile's path, in the profile's order.

    The returned environment map is the entire environment the build child
    should receive; nothing is inherited from this process. A pre-existing
    workdir is an error, never reused.
    """
    validate_request(req)
    workdir = Path(staging_root).resolve() / profile.build_path_component
    if workdir.exists():
        raise StructuralError(f"workdir already exists: {workdir}")
    workdir.mkdir(parents=True)
    _copy_tree_ordered(Path(req.source_dir), workdir, profile.fs_ordering)
    return PreparedBuild(workdir=workdir, env=dict(profile.env), profile=profile)
