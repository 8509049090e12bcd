"""The defect corpus: tiny buildable packages, one per root cause.

Each fixture is a self-contained directory holding ``repro.meta``, a ``src/``
tree, and an executable ``build`` script that writes artifacts to ``out/``.
The scripts honor the variation-environment contract (``REPRO_EPOCH``,
``REPRO_FS_ORDER``, ``TZ``, ``LC_ALL``, ``UMASK``, ``USER``,
``SOURCE_DATE_EPOCH``), so running one under the divergent profile pair
reproduces its designed defect on demand: an embedded build date, an
absolute path, directory-order dependence, raw archive metadata, fresh
randomness, unzeroed padding, locale-dependent rendering, or a
generated-at-build secret. The control fixture depends on none of it.

Each defect kind also carries its repair, written as an upstream patch
would be: a few exact ``(old, new)`` edits to its one build script (honour
SOURCE_DATE_EPOCH, drop the build path, sort, normalize archive metadata,
zero the padding, render in the C locale, leave secrets to install time).
``remediate_fixture`` rewrites ``build`` with them applied. The control
fixture's repair is empty.

Every ``build`` script starts ``#!<sys.executable> -IS``: ``-I`` ignores
``PYTHON*`` variables, user site-packages and the script's own directory,
and ``-S`` skips the ``site`` stage, so no ``.pth`` hook or
``sitecustomize`` of the host runs inside a fixture build. The scripts
import only stdlib modules, so their outputs depend on nothing but the
``src/`` tree and the profile's environment. The two flags are one token
because the kernel passes everything after the interpreter path on a
``#!`` line as a single argument.
"""

from __future__ import annotations

import enum
import stat
import sys
from dataclasses import dataclass
from pathlib import Path

from .classify import RootCause
from .errors import FixtureError
from .varenv import BuildRequest, read_settings


class FixtureKind(enum.Enum):
    CONTROL = "control"
    TIMESTAMP = "timestamp"
    BUILD_PATH = "build-path"
    FS_ORDERING = "fs-ordering"
    ARCHIVE_METADATA = "archive-metadata"
    RANDOMNESS = "randomness"
    UNINITIALIZED_MEMORY = "uninitialized-memory"
    LOCALE_TIMEZONE = "locale-timezone"
    BUILD_TIME_SECRET = "build-time-secret"


ALL_KINDS = tuple(FixtureKind)

#: The root cause each defect fixture is constructed to exhibit. The
#: build-time-secret fixture's defect is a fresh random token, so its
#: designed classification is Randomness, like the randomness fixture's.
DESIGNED_CAUSES: dict[FixtureKind, RootCause] = {
    FixtureKind.TIMESTAMP: RootCause.TIMESTAMP,
    FixtureKind.BUILD_PATH: RootCause.BUILD_PATH,
    FixtureKind.FS_ORDERING: RootCause.FS_ORDERING,
    FixtureKind.ARCHIVE_METADATA: RootCause.ARCHIVE_METADATA,
    FixtureKind.RANDOMNESS: RootCause.RANDOMNESS,
    FixtureKind.UNINITIALIZED_MEMORY: RootCause.UNINITIALIZED_MEMORY,
    FixtureKind.LOCALE_TIMEZONE: RootCause.LOCALE_OR_TIMEZONE,
    FixtureKind.BUILD_TIME_SECRET: RootCause.RANDOMNESS,
}


@dataclass(frozen=True)
class _FixtureDef:
    """One fixture's source files, its build script, and the ``(old, new)``
    edits that repair the build's defect."""

    files: tuple[tuple[str, str], ...]
    build: str
    repair: tuple[tuple[str, str], ...] = ()


_CONTROL_BUILD = r'''
import datetime
import os

os.makedirs("out", exist_ok=True)
epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))
stamp = datetime.datetime.fromtimestamp(epoch, datetime.timezone.utc).strftime(
    "%Y-%m-%dT%H:%M:%SZ"
)
parts = []
for name in sorted(os.listdir("src")):
    with open(os.path.join("src", name), "rb") as fh:
        parts.append(fh.read())
with open(os.path.join("out", "bundle.txt"), "wb") as fh:
    fh.write(("bundle generated at " + stamp + "\n").encode("utf-8"))
    fh.write(b"".join(parts))
'''

_TIMESTAMP_BUILD = r'''
import os
import time

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

os.makedirs("out", exist_ok=True)
epoch = int(os.environ["REPRO_EPOCH"])
t = time.gmtime(epoch)
stamp = "%s %2d %d" % (MONTHS[t.tm_mon - 1], t.tm_mday, t.tm_year)
with open(os.path.join("src", "payload.txt"), "rb") as fh:
    payload = fh.read()
with open(os.path.join("out", "tool.txt"), "wb") as fh:
    fh.write(("demo-tool version 3.141 (built %s)\n" % stamp).encode("utf-8"))
    fh.write(payload)
'''

_BUILD_PATH_BUILD = r'''
import os

os.makedirs("out", exist_ok=True)
with open(os.path.join("src", "main.c"), "rb") as fh:
    source = fh.read()
location = os.getcwd() + "/src/main.c:77"
with open(os.path.join("out", "debug.txt"), "wb") as fh:
    fh.write(("DEBUG: boop (%s)\n" % location).encode("utf-8"))
    fh.write(source)
'''

_FS_ORDERING_BUILD = r'''
import os

MASK = 0xFFFFFFFFFFFFFFFF


def ordered(names, token):
    names = sorted(names)
    if token == "forward":
        return names
    if token == "reverse":
        return list(reversed(names))
    if token.startswith("shuffled:"):
        state = int(token.split(":", 1)[1]) & MASK
        out = list(names)
        for i in range(len(out) - 1, 0, -1):
            state = (state + 0x9E3779B97F4A7C15) & MASK
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
            z ^= z >> 31
            j = z % (i + 1)
            out[i], out[j] = out[j], out[i]
        return out
    raise SystemExit("unknown REPRO_FS_ORDER token: " + token)


os.makedirs("out", exist_ok=True)
token = os.environ.get("REPRO_FS_ORDER", "forward")
chunks = []
for name in ordered(os.listdir("src"), token):
    with open(os.path.join("src", name), "rb") as fh:
        chunks.append(fh.read())
with open(os.path.join("out", "linked.txt"), "wb") as fh:
    fh.write(b"".join(chunks))
'''

_TAR_HELPER = r'''
def tar_bytes(members):
    blocks = []
    for name, data, mode, uid, gid, uname, gname, mtime in members:
        raw = name.encode("utf-8")
        header = b"".join([
            raw + b"\x00" * (100 - len(raw)),
            ("%07o" % mode).encode() + b"\x00",
            ("%07o" % uid).encode() + b"\x00",
            ("%07o" % gid).encode() + b"\x00",
            ("%011o" % len(data)).encode() + b"\x00",
            ("%011o" % mtime).encode() + b"\x00",
            b" " * 8,
            b"0",
            b"\x00" * 100,
            b"ustar\x0000",
            uname.encode("utf-8") + b"\x00" * (32 - len(uname.encode("utf-8"))),
            gname.encode("utf-8") + b"\x00" * (32 - len(gname.encode("utf-8"))),
            b"0000000\x00",
            b"0000000\x00",
            b"\x00" * 155,
        ])
        header += b"\x00" * (512 - len(header))
        checksum = ("%06o" % sum(header)).encode() + b"\x00 "
        header = header[:148] + checksum + header[156:]
        blocks.append(header)
        blocks.append(data)
        if len(data) % 512:
            blocks.append(b"\x00" * (512 - len(data) % 512))
    blocks.append(b"\x00" * 1024)
    return b"".join(blocks)
'''

_ARCHIVE_METADATA_BUILD = (
    r'''
import os

'''
    + _TAR_HELPER
    + r'''

os.makedirs("out", exist_ok=True)
mtime = int(os.environ["REPRO_EPOCH"])
umask = int(os.environ.get("UMASK", "022"), 8)
mode = 0o666 & ~umask
user = os.environ.get("USER", "nobody")
members = []
for name in sorted(os.listdir("src")):
    with open(os.path.join("src", name), "rb") as fh:
        members.append(
            (name, fh.read(), mode, os.getuid(), os.getgid(), user, user, mtime)
        )
with open(os.path.join("out", "dist.tar"), "wb") as fh:
    fh.write(tar_bytes(members))
'''
)

_RANDOMNESS_BUILD = r'''
import os
import random
import secrets

os.makedirs("out", exist_ok=True)
with open(os.path.join("src", "defaults.txt"), "r", encoding="utf-8") as fh:
    entries = [line.strip() for line in fh if line.strip()]
random.shuffle(entries)
secret = secrets.token_hex(16)
with open(os.path.join("out", "config.txt"), "w", encoding="utf-8", newline="\n") as fh:
    for entry in entries:
        fh.write(entry + "\n")
    fh.write("consumer_secret = " + secret + "\n")
'''

_UNINITIALIZED_MEMORY_BUILD = r'''
import hashlib
import os

os.makedirs("out", exist_ok=True)
with open(os.path.join("src", "record.dat"), "rb") as fh:
    payload = fh.read()
digest = hashlib.sha256(payload).digest()
# Stand-in for struct padding left uninitialized. The knob is
# SOURCE_DATE_EPOCH: a build that exports it zeroes the padding, one that
# does not leaves process-state garbage that changes with the environment.
if "SOURCE_DATE_EPOCH" in os.environ:
    padding = b"\x00" * 16
else:
    env_dump = "|".join("%s=%s" % item for item in sorted(os.environ.items()))
    padding = hashlib.sha256(env_dump.encode("utf-8")).digest()[:16]
record = b"RECD" + len(payload).to_bytes(4, "big") + digest + padding
with open(os.path.join("out", "record.bin"), "wb") as fh:
    fh.write(record)
'''

_LOCALE_TIMEZONE_BUILD = r'''
import os

MONTHS = {
    "fr": ("janvier", "février", "mars", "avril", "mai", "juin",
           "juillet", "août", "septembre", "octobre", "novembre",
           "décembre"),
    "de": ("Januar", "Februar", "März", "April", "Mai", "Juni", "Juli",
           "August", "September", "Oktober", "November", "Dezember"),
}
ENGLISH = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")
OFFSETS = {
    "UTC": "+0000",
    "Pacific/Kiritimati": "+1400",
    "Europe/Berlin": "+0100",
    "America/New_York": "-0500",
}

os.makedirs("out", exist_ok=True)
lang = os.environ.get("LC_ALL", "C")
code = lang.split("_")[0].split(".")[0].lower()
months = MONTHS.get(code, ENGLISH)
offset = OFFSETS.get(os.environ.get("TZ", "UTC"), "+0000")
with open(os.path.join("src", "schedule.txt"), "rb") as fh:
    schedule = fh.read()
with open(os.path.join("out", "report.txt"), "wb") as fh:
    fh.write(("release month: " + months[2] + "\n").encode("utf-8"))
    fh.write(("utc offset: " + offset + "\n").encode("utf-8"))
    fh.write(schedule)
'''

_BUILD_TIME_SECRET_BUILD = r'''
import hashlib
import os

os.makedirs("out", exist_ok=True)
with open(os.path.join("src", "app.conf.in"), "r", encoding="utf-8") as fh:
    template = fh.read()
# Stand-in for a credential minted at packaging time: derived from the build
# environment, so no two distinct environments ever agree on its value.
env_dump = "|".join("%s=%s" % item for item in sorted(os.environ.items()))
secret = hashlib.sha256(("secret|" + env_dump).encode("utf-8")).hexdigest()[:32]
rendered = template.replace("@@SECRET@@", secret)
with open(os.path.join("out", "app.conf"), "w", encoding="utf-8", newline="\n") as fh:
    fh.write(rendered)
'''


_FIXTURES: dict[FixtureKind, _FixtureDef] = {
    FixtureKind.CONTROL: _FixtureDef(
        files=(
            ("src/alpha.txt", "alpha section\nstable content line one\n"),
            ("src/beta.txt", "beta section\nstable content line two\n"),
        ),
        build=_CONTROL_BUILD,
    ),
    FixtureKind.TIMESTAMP: _FixtureDef(
        files=(
            ("src/payload.txt", "usage: demo-tool [--help]\nreads input, writes output\n"),
        ),
        build=_TIMESTAMP_BUILD,
        repair=(
            ('epoch = int(os.environ["REPRO_EPOCH"])',
             'epoch = int(os.environ.get("SOURCE_DATE_EPOCH", "0"))'),
        ),
    ),
    FixtureKind.BUILD_PATH: _FixtureDef(
        files=(
            (
                "src/main.c",
                'int main(void) {\n    puts("boop");\n    return 0;\n}\n',
            ),
        ),
        build=_BUILD_PATH_BUILD,
        repair=(('os.getcwd() + "/src/main.c:77"', '"src/main.c:77"'),),
    ),
    FixtureKind.FS_ORDERING: _FixtureDef(
        files=(
            ("src/part-one.txt", "object code for module one\n"),
            ("src/part-two.txt", "object code for module two\n"),
            ("src/part-three.txt", "object code for module three\n"),
            ("src/part-four.txt", "object code for module four\n"),
        ),
        build=_FS_ORDERING_BUILD,
        repair=(('ordered(os.listdir("src"), token)', 'sorted(os.listdir("src"))'),),
    ),
    FixtureKind.ARCHIVE_METADATA: _FixtureDef(
        files=(
            ("src/data.txt", "packaged data file\n"),
            ("src/notes.txt", "packaged release notes\n"),
        ),
        build=_ARCHIVE_METADATA_BUILD,
        repair=(
            ('mtime = int(os.environ["REPRO_EPOCH"])',
             'mtime = min(int(os.environ["REPRO_EPOCH"]),'
             ' int(os.environ.get("SOURCE_DATE_EPOCH", "0")))'),
            ('mode, os.getuid(), os.getgid(), user, user, mtime',
             '0o644, 0, 0, "root", "root", mtime'),
        ),
    ),
    FixtureKind.RANDOMNESS: _FixtureDef(
        files=(
            (
                "src/defaults.txt",
                "compiler = native\n"
                "flags = strict\n"
                "prefix = local\n"
                "sysroot = standard\n"
                "target = generic\n"
                "toolchain = bundled\n",
            ),
        ),
        build=_RANDOMNESS_BUILD,
        repair=(
            ("import random\nimport secrets\n", ""),
            ("random.shuffle(entries)", "entries.sort()"),
            ("secrets.token_hex(16)", '"@@GENERATED-AT-INSTALL@@"'),
        ),
    ),
    FixtureKind.UNINITIALIZED_MEMORY: _FixtureDef(
        files=(("src/record.dat", "fixed record payload\n"),),
        build=_UNINITIALIZED_MEMORY_BUILD,
        repair=(
            ('padding = hashlib.sha256(env_dump.encode("utf-8")).digest()[:16]',
             r'padding = b"\x00" * 16'),
        ),
    ),
    FixtureKind.LOCALE_TIMEZONE: _FixtureDef(
        files=(("src/schedule.txt", "release window: third month\n"),),
        build=_LOCALE_TIMEZONE_BUILD,
        repair=(
            ('os.environ.get("LC_ALL", "C")', '"C"'),
            ('os.environ.get("TZ", "UTC")', '"UTC"'),
        ),
    ),
    FixtureKind.BUILD_TIME_SECRET: _FixtureDef(
        files=(
            (
                "src/app.conf.in",
                "endpoint = /api/v2\n"
                "log_level = info\n"
                "consumer_secret = @@SECRET@@\n",
            ),
        ),
        build=_BUILD_TIME_SECRET_BUILD,
        repair=(
            ("import hashlib\n", ""),
            ('secret = hashlib.sha256(("secret|" + env_dump).encode("utf-8")).hexdigest()[:32]',
             'secret = "@@GENERATED-AT-INSTALL@@"'),
        ),
    ),
}


def _write_build_script(dest: Path, body: str) -> None:
    interpreter = sys.executable
    if not interpreter or any(c.isspace() for c in interpreter):
        # The kernel splits a #! line at whitespace, so no such script could start.
        raise FixtureError(f"interpreter path unusable in a #! line: {interpreter!r}")
    script = dest / "build"
    script.write_text(f"#!{interpreter} -IS\n" + body.lstrip("\n"), encoding="utf-8")
    mode = script.stat().st_mode
    script.chmod(mode | stat.S_IXUSR | stat.S_IXGRP | stat.S_IXOTH)


def _write_meta(dest: Path, kind: FixtureKind) -> None:
    (dest / "repro.meta").write_text(
        f"source={kind.value}\nversion=1.0\narch=all\n"
        "dep=coreutils=9.1\ndep=python-runtime=3.10\n",
        encoding="utf-8",
    )


def generate_fixture(kind: FixtureKind, dest: Path | str) -> BuildRequest:
    """Write one fixture into an empty directory; returns its build request."""
    definition = _FIXTURES[kind]
    dest = Path(dest)
    if dest.exists() and any(dest.iterdir()):
        raise FixtureError(f"destination not empty: {dest}")
    dest.mkdir(parents=True, exist_ok=True)
    for relpath, text in definition.files:
        target = dest / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    _write_build_script(dest, definition.build)
    _write_meta(dest, kind)
    return BuildRequest(source_dir=dest, build_entry="build", output_subdir="out")


def remediate_fixture(kind: FixtureKind, dest: Path | str) -> None:
    """Rewrite a previously generated fixture's build, which must be of
    ``kind``, with its repair applied."""
    definition = _FIXTURES.get(kind)
    if definition is None:
        raise FixtureError(f"unknown fixture kind: {kind!r}")
    dest = Path(dest)
    if not (dest / "build").is_file() or not (dest / "repro.meta").is_file():
        raise FixtureError(f"no generated fixture at {dest}")
    settings = read_settings(dest / "repro.meta")
    source = next((value for key, value, _ in settings if key == "source"), None)
    if source != kind.value:
        raise FixtureError(f"fixture at {dest} is {source!r}, not {kind.value!r}")
    build = definition.build
    for old, new in definition.repair:
        build = build.replace(old, new)
    _write_build_script(dest, build)


def generate_all(dest_root: Path | str) -> dict[FixtureKind, BuildRequest]:
    """Generate the full corpus, one subdirectory per kind."""
    dest_root = Path(dest_root)
    out = {}
    for kind in ALL_KINDS:
        out[kind] = generate_fixture(kind, dest_root / kind.value)
    return out


def kind_from_token(token: str) -> FixtureKind:
    for kind in ALL_KINDS:
        if kind.value == token:
            return kind
    valid = ", ".join(k.value for k in ALL_KINDS)
    raise FixtureError(f"unknown fixture kind {token!r} (expected one of: {valid})")
