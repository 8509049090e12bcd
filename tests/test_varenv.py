"""Variation profiles, orderings, environment materialization, staging."""

from __future__ import annotations

import os
import tempfile
from dataclasses import fields, replace
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit.errors import ParseError, StructuralError, ValidationError
from reprokit.varenv import (
    _KNOB_CHECKS,
    _KNOB_PARSERS,
    BASE_EPOCH,
    CLOCK_SKEW_SECONDS,
    BuildRequest,
    VariationProfile,
    apply_profile,
    default_profiles,
    deterministic_shuffle,
    load_profile,
    ordered_entries,
    validate_request,
)


def test_ordering_tokens_reach_the_environment():
    first, _ = default_profiles()
    for token in ("forward", "reverse", "shuffled:0", "shuffled:5", f"shuffled:{2**64 - 1}"):
        assert replace(first, fs_ordering=token).env["REPRO_FS_ORDER"] == token


@pytest.mark.parametrize("token", ["", "random", "shuffled", "shuffled:", "shuffled:x", "shuffled:-1"])
def test_fs_ordering_rejects_garbage(token):
    with pytest.raises(ParseError):
        replace(default_profiles()[0], fs_ordering=token)


def test_fs_ordering_rejects_overflowing_seed():
    with pytest.raises(ValidationError):
        replace(default_profiles()[0], fs_ordering=f"shuffled:{2**64}")


def test_deterministic_shuffle_is_stable_permutation():
    items = [f"item-{i:02d}" for i in range(12)]
    once = deterministic_shuffle(items, 42)
    again = deterministic_shuffle(items, 42)
    assert once == again
    assert sorted(once) == items
    assert deterministic_shuffle(items, 43) != once


def test_ordered_entries(tmp_path):
    for name in ("cherry", "apple", "banana", "damson"):
        (tmp_path / name).write_text(name)
    assert ordered_entries(tmp_path, "forward") == ["apple", "banana", "cherry", "damson"]
    assert ordered_entries(tmp_path, "reverse") == ["damson", "cherry", "banana", "apple"]
    shuffled = ordered_entries(tmp_path, "shuffled:9")
    assert shuffled == deterministic_shuffle(["apple", "banana", "cherry", "damson"], 9)
    assert sorted(shuffled) == ["apple", "banana", "cherry", "damson"]


#: Every token ``fs_ordering`` accepts, the seed in canonical decimal.
_FS_ORDERINGS = st.sampled_from(["forward", "reverse"]) | st.integers(0, 2**64 - 1).map(
    lambda seed: f"shuffled:{seed}"
)

#: Names a directory can hold: no ``/``, no NUL, and neither ``.`` nor ``..``.
_ENTRY_NAMES = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="/\x00"),
    min_size=1, max_size=8,
).filter(lambda name: name not in (".", ".."))


@settings(max_examples=100, deadline=None)
@given(_FS_ORDERINGS, st.sets(_ENTRY_NAMES, max_size=8))
def test_ordered_entries_matches_the_reference(token, names):
    ascending = sorted(names, key=os.fsencode)
    if token == "forward":
        expected = ascending
    elif token == "reverse":
        expected = ascending[::-1]
    else:
        expected = deterministic_shuffle(ascending, int(token.partition(":")[2]))
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            (Path(tmp) / name).touch()
        assert ordered_entries(tmp, token) == expected


def test_default_profiles_divergence():
    first, second = default_profiles()
    assert first.name != second.name
    assert first.clock_skew_seconds == 0
    assert second.clock_skew_seconds == CLOCK_SKEW_SECONDS
    assert CLOCK_SKEW_SECONDS == 47_336_400
    assert first.build_path_component != second.build_path_component
    assert len(first.build_path_component) != len(second.build_path_component)
    assert first.fs_ordering != second.fs_ordering
    assert first.umask != second.umask
    assert first.locale != second.locale
    assert first.timezone != second.timezone
    assert first.hostname != second.hostname
    assert first.username != second.username


def test_default_profile_environments():
    first, second = default_profiles()
    assert first.env["REPRO_EPOCH"] == str(BASE_EPOCH)
    assert second.env["REPRO_EPOCH"] == str(BASE_EPOCH + CLOCK_SKEW_SECONDS)
    assert first.env["SOURCE_DATE_EPOCH"] == "0"
    assert "SOURCE_DATE_EPOCH" not in second.env
    assert first.env["UMASK"] == "022"
    assert second.env["UMASK"] == "077"
    assert first.env["REPRO_FS_ORDER"] == "forward"
    assert second.env["REPRO_FS_ORDER"] == "reverse"
    for profile in (first, second):
        assert profile.env["TZ"] == profile.timezone
        assert profile.env["LC_ALL"] == profile.locale
        assert profile.env["LANG"] == profile.locale
        assert profile.env["HOSTNAME"] == profile.hostname
        assert profile.env["USER"] == profile.username


def test_materialize_env_exact():
    env = VariationProfile(
        name="p",
        clock_skew_seconds=10,
        build_path_component="build",
        fs_ordering="shuffled:3",
        umask=0o002,
        locale="C.UTF-8",
        timezone="Europe/Berlin",
        hostname="box",
        username="worker",
        source_date_epoch=None,
    ).env
    assert env == {
        "TZ": "Europe/Berlin",
        "LC_ALL": "C.UTF-8",
        "LANG": "C.UTF-8",
        "HOSTNAME": "box",
        "USER": "worker",
        "UMASK": "002",
        "REPRO_EPOCH": str(BASE_EPOCH + 10),
        "REPRO_FS_ORDER": "shuffled:3",
    }


def test_make_profile_rejects_bad_path_component():
    for bad in ("", "a/b", "..", "."):
        with pytest.raises(ValidationError):
            VariationProfile(
                name="p",
                clock_skew_seconds=0,
                build_path_component=bad,
                fs_ordering="forward",
                umask=0o022,
                locale="C",
                timezone="UTC",
                hostname="h",
                username="u",
            )


def test_load_profile(tmp_path):
    config = tmp_path / "profile.conf"
    config.write_text(
        "# build environment\n"
        "name = custom\n"
        "clock_skew_seconds = 60\n"
        "build_path_component = work\n"
        "fs_ordering = shuffled:11\n"
        "umask = 027\n"
        "locale = de_DE.UTF-8\n"
        "timezone = Europe/Berlin\n"
        "hostname = box\n"
        "username = worker\n"
        "\n"
        "source_date_epoch = 5\n"
    )
    profile = load_profile(config)
    assert profile.name == "custom"
    assert profile.clock_skew_seconds == 60
    assert profile.fs_ordering == "shuffled:11"
    assert profile.umask == 0o027
    assert profile.env["UMASK"] == "027"
    assert profile.env["SOURCE_DATE_EPOCH"] == "5"
    assert profile.env["REPRO_EPOCH"] == str(BASE_EPOCH + 60)


def test_load_profile_source_date_epoch_optional(tmp_path):
    config = tmp_path / "p.conf"
    config.write_text(
        "name = q\nclock_skew_seconds = 0\nbuild_path_component = b\n"
        "fs_ordering = forward\numask = 022\nlocale = C\ntimezone = UTC\n"
        "hostname = h\nusername = u\n"
    )
    profile = load_profile(config)
    assert "SOURCE_DATE_EPOCH" not in profile.env


@pytest.mark.parametrize(
    "mutation",
    [
        ("name = q", ""),                       # missing knob
        ("umask = 022", "umask = 09"),          # not octal
        ("fs_ordering = forward", "fs_ordering = sideways"),
        ("hostname = h", "hostname = h\nextra_knob = 1"),
        ("hostname = h", "hostname = h\nhostname = i"),  # duplicate knob
        ("clock_skew_seconds = 0", "clock_skew_seconds = soon"),
        ("umask = 022", "umask = -1"),          # out of range
        ("umask = 022", "umask = 17777"),
        ("username = u", "username = u\nsource_date_epoch = -5"),
    ],
)
def test_load_profile_rejects_bad_configs(tmp_path, mutation):
    base = (
        "name = q\nclock_skew_seconds = 0\nbuild_path_component = b\n"
        "fs_ordering = forward\numask = 022\nlocale = C\ntimezone = UTC\n"
        "hostname = h\nusername = u\n"
    )
    old, new = mutation
    config = tmp_path / "p.conf"
    config.write_text(base.replace(old, new))
    with pytest.raises((ParseError, ValidationError)):
        load_profile(config)


@pytest.mark.parametrize("old,new,name,value", [
    ("umask = 022", "umask = 000", "UMASK", "000"),
    ("umask = 022", "umask = 777", "UMASK", "777"),
    ("username = u", "username = u\nsource_date_epoch = 0", "SOURCE_DATE_EPOCH", "0"),
])
def test_load_profile_accepts_the_range_ends(tmp_path, old, new, name, value):
    base = (
        "name = q\nclock_skew_seconds = 0\nbuild_path_component = b\n"
        "fs_ordering = forward\numask = 022\nlocale = C\ntimezone = UTC\n"
        "hostname = h\nusername = u\n"
    )
    config = tmp_path / "p.conf"
    config.write_text(base.replace(old, new))
    assert load_profile(config).env[name] == value


def profile_ending_with(tmp_path, knob: str):
    """A valid profile with ``knob`` moved to its last line, after a blank
    one, and that line's number."""
    lines = [
        "name = q", "clock_skew_seconds = 0", "build_path_component = b",
        "fs_ordering = forward", "umask = 022", "locale = C", "timezone = UTC",
        "hostname = h", "username = u",
    ]
    key = knob.partition(" ")[0]
    lines = [line for line in lines if line.partition(" ")[0] != key] + ["", knob]
    config = tmp_path / "p.conf"
    config.write_text("\n".join(lines) + "\n")
    return config, len(lines)


@pytest.mark.parametrize("knob,needle", [
    ("fs_ordering = sideways", "unknown ordering token 'sideways'"),
    ("fs_ordering = shuffled:x", "bad shuffle seed in 'shuffled:x'"),
    ("fs_ordering = shuffled:007", "bad shuffle seed in 'shuffled:007'"),
    ("umask = 09", "bad numeric knob"),
    ("clock_skew_seconds = soon", "bad numeric knob"),
])
def test_load_profile_names_the_line_of_a_malformed_knob(tmp_path, knob, needle):
    config, line = profile_ending_with(tmp_path, knob)
    with pytest.raises(ParseError) as err:
        load_profile(config)
    assert err.value.line == line == 10
    assert str(err.value).startswith("line 10: ")
    assert needle in str(err.value)


@pytest.mark.parametrize("knob,message", [
    ("umask = 1777", "umask must be within 000..777 octal, got 1777"),
    ("fs_ordering = shuffled:18446744073709551616", "shuffle seed must fit in 64 bits"),
    ("source_date_epoch = -5", "source_date_epoch must not be negative, got -5"),
    ("build_path_component = a/b", "build_path_component must be a single path segment"),
])
def test_load_profile_names_the_line_of_an_out_of_range_knob(tmp_path, knob, message):
    config, line = profile_ending_with(tmp_path, knob)
    with pytest.raises(ParseError) as err:
        load_profile(config)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.mark.parametrize("knob,message", [
    ("fs_ordering = shuffled:٣", "bad shuffle seed in 'shuffled:٣'"),
    ("fs_ordering = shuffled:²", "bad shuffle seed in 'shuffled:²'"),
    ("source_date_epoch = ٥", "bad numeric knob: expected base-10 digits, got '٥'"),
    ("umask = 0o22", "bad numeric knob: expected base-8 digits, got '0o22'"),
    ("clock_skew_seconds = 1_000", "bad numeric knob: expected base-10 digits, got '1_000'"),
    ("clock_skew_seconds = +5", "bad numeric knob: expected base-10 digits, got '+5'"),
    ("umask = -1", "umask must be within 000..777 octal, got -1"),
], ids=["arabic-indic-seed", "superscript-seed", "arabic-indic-epoch", "prefixed-octal",
        "underscore", "plus-sign", "negative-umask"])
def test_load_profile_reads_numbers_in_ascii_digits_only(tmp_path, knob, message):
    config, line = profile_ending_with(tmp_path, knob)
    with pytest.raises(ParseError) as err:
        load_profile(config)
    assert str(err.value) == f"line {line}: {message}"


LONG = "1" * 5000  # more digits than int() converts by default


@pytest.mark.parametrize("token", [f"shuffled:{LONG}", f"shuffled:1{'0' * 20}"],
                         ids=["5000-digits", "21-digits"])
def test_fs_ordering_refuses_a_seed_too_long_for_64_bits(token):
    with pytest.raises(ValidationError, match="^shuffle seed must fit in 64 bits$"):
        replace(default_profiles()[0], fs_ordering=token)


@pytest.mark.parametrize("knob,message", [
    (f"fs_ordering = shuffled:{LONG}", "shuffle seed must fit in 64 bits"),
    (f"source_date_epoch = {LONG}", "bad numeric knob: too many digits (5000)"),
    (f"clock_skew_seconds = -{LONG}", "bad numeric knob: too many digits (5000)"),
], ids=["seed", "epoch", "negative-skew"])
def test_load_profile_refuses_numbers_too_long_for_int(tmp_path, knob, message):
    config, line = profile_ending_with(tmp_path, knob)
    with pytest.raises(ParseError) as err:
        load_profile(config)
    assert str(err.value) == f"line {line}: {message}"


def test_replaced_knobs_reach_the_environment():
    first, second = default_profiles()
    env = replace(second, timezone="UTC", umask=0o022).env
    assert env["TZ"] == "UTC"
    assert env["UMASK"] == "022"
    assert "SOURCE_DATE_EPOCH" not in replace(first, source_date_epoch=None).env


@pytest.mark.parametrize("content", [None, b"name = \xff\n"])
def test_load_profile_unreadable_file(tmp_path, content):
    config = tmp_path / "p.conf"
    if content is not None:
        config.write_bytes(content)
    with pytest.raises(ParseError) as err:
        load_profile(config)
    assert "cannot read" in str(err.value)


# Setting values the file format can carry: nothing the reader strips or
# splits a line at.
_SETTING_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12).filter(
    lambda s: s == s.strip() and "".join(s.splitlines()) == s
)


@st.composite
def profiles(draw):
    return VariationProfile(
        name=draw(_SETTING_TEXT),
        clock_skew_seconds=draw(st.integers(-(2**40), 2**40)),
        build_path_component=draw(_SETTING_TEXT.filter(
            lambda s: s not in ("", ".", "..") and "/" not in s and "\\" not in s
        )),
        fs_ordering=draw(_FS_ORDERINGS),
        umask=draw(st.integers(0, 0o777)),
        locale=draw(_SETTING_TEXT),
        timezone=draw(_SETTING_TEXT),
        hostname=draw(_SETTING_TEXT),
        username=draw(_SETTING_TEXT),
        source_date_epoch=draw(st.none() | st.integers(0, 2**40)),
    )


def profile_text(profile: VariationProfile) -> str:
    lines = []
    for field in fields(VariationProfile):
        value = getattr(profile, field.name)
        if field.name == "umask":
            value = format(value, "o")
        if value is not None:
            lines.append(f"{field.name} = {value}")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(profiles())
def test_load_profile_round_trips(profile):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "p.conf"
        config.write_text(profile_text(profile), encoding="utf-8")
        assert load_profile(config) == profile


def make_source(tmp_path, entry_mode=0o755):
    source = tmp_path / "source"
    source.mkdir()
    (source / "build").write_text("#!/bin/sh\nexit 0\n")
    (source / "build").chmod(entry_mode)
    (source / "data.txt").write_text("payload\n")
    return source


def test_validate_request(tmp_path):
    source = make_source(tmp_path)
    validate_request(BuildRequest(source_dir=source, build_entry="build", output_subdir="out"))
    with pytest.raises(ValidationError):
        validate_request(BuildRequest(source_dir=source, build_entry="nope", output_subdir="out"))
    with pytest.raises(ValidationError):
        validate_request(BuildRequest(source_dir=source, build_entry="build", output_subdir="/abs"))
    with pytest.raises(ValidationError):
        validate_request(
            BuildRequest(source_dir=source, build_entry="build", output_subdir="out", timeout_seconds=0)
        )


def test_validate_request_requires_executable_entry(tmp_path):
    source = make_source(tmp_path, entry_mode=0o644)
    with pytest.raises(ValidationError):
        validate_request(BuildRequest(source_dir=source, build_entry="build", output_subdir="out"))


def test_apply_profile_stages_a_copy(tmp_path):
    source = make_source(tmp_path)
    (source / "sub").mkdir()
    (source / "sub" / "inner.txt").write_text("inner\n")
    profile, _ = default_profiles()
    staging = tmp_path / "staging"
    staging.mkdir()
    pb = apply_profile(profile, BuildRequest(source_dir=source, build_entry="build", output_subdir="out"), staging)
    assert pb.workdir == staging.resolve() / profile.build_path_component
    assert (pb.workdir / "data.txt").read_text() == "payload\n"
    assert (pb.workdir / "sub" / "inner.txt").read_text() == "inner\n"
    assert os.access(pb.workdir / "build", os.X_OK)
    assert pb.profile == profile
    with pytest.raises(StructuralError):
        apply_profile(profile, BuildRequest(source_dir=source, build_entry="build", output_subdir="out"), staging)


def test_apply_profile_rejects_symlinks(tmp_path):
    source = make_source(tmp_path)
    (source / "link").symlink_to(source / "data.txt")
    profile, _ = default_profiles()
    staging = tmp_path / "staging"
    staging.mkdir()
    with pytest.raises(StructuralError):
        apply_profile(profile, BuildRequest(source_dir=source, build_entry="build", output_subdir="out"), staging)


def test_every_knob_table_key_is_a_field_and_unparsed_knobs_are_strings():
    hints = get_type_hints(VariationProfile)
    assert set(_KNOB_CHECKS) <= set(hints)
    assert set(_KNOB_PARSERS) <= set(hints)
    unparsed = {name: hint for name, hint in hints.items() if name not in _KNOB_PARSERS}
    assert unparsed and all(hint is str for hint in unparsed.values()), unparsed
