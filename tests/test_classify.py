"""Root-cause classifier: one rule at a time, then their interactions."""

from __future__ import annotations

import difflib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reprokit.classify import (
    _ABS_PATH,
    _DEFAULT_EPOCHS,
    Confidence,
    RootCause,
    RootCauseFinding,
    _date_strings,
    _locale_tokens,
    _random_candidates,
    _side_difference,
    classify,
    findings_to_json,
    primary_finding,
    shannon_entropy,
)
from reprokit.compare import (
    ByteRanges,
    DiffNode,
    Format,
    MetaDiff,
    Status,
    TextDiff,
    compare_bytes,
)
from reprokit.formats import Member, write_tar
from reprokit.varenv import BASE_EPOCH, CLOCK_SKEW_SECONDS


def one(a: bytes, b: bytes, **kwargs):
    findings = classify(compare_bytes(a, b), **kwargs)
    assert len(findings) == 1, findings
    return findings[0]


def test_shannon_entropy_goldens():
    assert shannon_entropy("") == 0.0
    assert shannon_entropy("aaaa") == 0.0
    assert shannon_entropy("ab") == 1.0
    assert math.isclose(shannon_entropy("aabb"), 1.0)
    assert shannon_entropy("639098210478536") > 3.0
    assert shannon_entropy("abcdefgh") == 3.0


@pytest.mark.parametrize("first,second", [
    (b"built 2020-09-13\n", b"built 2022-03-15\n"),
    (b"at 2020-09-13T12:26:40Z end\n", b"at 2022-03-15T09:26:40Z end\n"),
    (b"Date: Sun, 13 Sep 2020 12:26:40 +0000\n", b"Date: Tue, 15 Mar 2022 09:26:40 +0000\n"),
    (b"Sun Sep 13 12:26:40 2020\n", b"Tue Mar 15 09:26:40 2022\n"),
    (b"compiled Sep 13 2020\n", b"compiled Mar 15 2022\n"),
    (b"stamp=1600000000\n", b"stamp=1647336400\n"),
])
def test_timestamp_rule_positive(first, second):
    f = one(first, second)
    assert f.cause is RootCause.TIMESTAMP
    assert f.confidence is Confidence.HIGH
    assert f.evidence[0] in first.decode()
    assert f.evidence[1] in second.decode()


def test_timestamp_ignores_integers_outside_the_window():
    f = one(b"serial=999999999\n", b"serial=123456789\n")
    assert f.cause is not RootCause.TIMESTAMP


def test_timestamp_epochs_parameter_moves_the_window():
    a, b = b"t 999999999\n", b"t 999999000\n"
    assert one(a, b).cause is RootCause.UNKNOWN
    f = one(a, b, epochs=(1_000_000_000, 1_000_000_100))
    assert f.cause is RootCause.TIMESTAMP
    assert f.evidence == ("999999999", "999999000")


def test_timestamp_needs_a_side_difference():
    # the same dates appear on both sides; the change is elsewhere
    f = one(b"on 2020-09-13 ok\n", b"on 2020-09-13 OK\n")
    assert f.cause is not RootCause.TIMESTAMP


def test_build_path_rule_positive():
    f = one(
        b"DEBUG: boop (/build/first/src/main.c:77)\n",
        b"DEBUG: boop (/build/second/src/main.c:77)\n",
    )
    assert f.cause is RootCause.BUILD_PATH
    assert f.confidence is Confidence.HIGH
    assert f.evidence[0].startswith("/build/first")
    assert f.evidence[1].startswith("/build/second")


def test_build_path_requires_matching_basename():
    f = one(b"see /opt/alpha/one.c\n", b"see /opt/beta/two.c\n")
    assert f.cause is not RootCause.BUILD_PATH


def test_fs_ordering_rule_text_permutation():
    f = one(b"obj-b.o\nobj-a.o\nobj-c.o\n", b"obj-a.o\nobj-b.o\nobj-c.o\n")
    assert f.cause is RootCause.FS_ORDERING
    assert f.confidence is Confidence.HIGH


def test_fs_ordering_evidence_is_the_first_moved_line():
    f = one(b"keep\nobj-b.o\nobj-a.o\n", b"keep\nobj-a.o\nobj-b.o\n")
    assert (f.cause, f.evidence) == (RootCause.FS_ORDERING, ("obj-b.o", "obj-a.o"))


def test_timestamp_evidence_from_a_line_that_looks_like_a_file_header():
    f = one(b"-- built 2020-09-13\nx\n", b"-- built 2022-03-15\nx\n")
    assert f.cause is RootCause.TIMESTAMP
    assert f.evidence == ("2020-09-13", "2022-03-15")


def test_fs_ordering_not_for_changed_content():
    f = one(b"obj-a.o\nobj-b.o\n", b"obj-a.o\nobj-x.o\n")
    assert f.cause is not RootCause.FS_ORDERING


def test_fs_ordering_rule_container_order():
    ma = [Member(name="a", content=b"1"), Member(name="b", content=b"2")]
    node = compare_bytes(write_tar(ma), write_tar(list(reversed(ma))))
    (f,) = classify(node)
    assert f.cause is RootCause.FS_ORDERING
    assert f.evidence == ("a,b", "b,a")


def test_archive_metadata_rule_high_when_content_same():
    ma = [Member(name="f", content=b"same", mtime=100, uid=0)]
    mb = [Member(name="f", content=b"same", mtime=200, uid=7)]
    node = compare_bytes(write_tar(ma), write_tar(mb))
    findings = classify(node)
    meta = [f for f in findings if f.cause is RootCause.ARCHIVE_METADATA]
    assert len(meta) == 1
    assert meta[0].confidence is Confidence.HIGH
    assert "mtime=100" in meta[0].evidence[0]
    assert "mtime=200" in meta[0].evidence[1]


def test_archive_metadata_rule_medium_when_content_differs_too():
    ma = [Member(name="f", content=b"one\n", mtime=100)]
    mb = [Member(name="f", content=b"two\n", mtime=200)]
    findings = classify(compare_bytes(write_tar(ma), write_tar(mb)))
    causes = {f.cause for f in findings}
    meta = next(f for f in findings if f.cause is RootCause.ARCHIVE_METADATA)
    assert meta.confidence is Confidence.MEDIUM
    assert RootCause.UNKNOWN in causes  # the content child has no better rule


def test_randomness_rule_positive():
    f = one(
        b"token = 9f86d081884c7d659a2feaa0c55ad015\n",
        b"token = 60303ae22b998861bce3b28f33eec1be\n",
    )
    assert f.cause is RootCause.RANDOMNESS
    assert f.confidence is Confidence.HIGH
    assert len(f.evidence[0]) == len(f.evidence[1]) == 32


def test_randomness_requires_entropy():
    f = one(b"id 111111111111111111\n", b"id 222222222222222222\n")
    assert f.cause is not RootCause.RANDOMNESS


def test_randomness_names_a_low_entropy_32_hex_token():
    """About 1 in 10 000 random 32-hex tokens has entropy <= 3.0."""
    rng = random.Random(11)
    draws = ("%032x" % rng.getrandbits(128) for _ in range(10_000))
    low = next(t for t in draws if shannon_entropy(t) <= 3.0)
    other = "%032x" % rng.getrandbits(128)
    f = one(f"token = {low}\n".encode(), f"token = {other}\n".encode())
    assert f.cause is RootCause.RANDOMNESS
    assert f.evidence == (low, other)


def test_randomness_skips_a_32_digit_run_with_one_change():
    f = one(b"id " + b"7" * 31 + b"1\n", b"id " + b"7" * 31 + b"2\n")
    assert f.cause is not RootCause.RANDOMNESS


def test_randomness_requires_equal_length_tokens():
    f = one(b"v deadbeefdeadbeef11\n", b"v cafe0123cafe0123\n")
    assert f.cause is not RootCause.RANDOMNESS


def test_randomness_skips_plain_words():
    f = one(b"environment variable\n", b"configuration setting\n")
    assert f.cause is RootCause.UNKNOWN


@pytest.mark.parametrize("first,second", [
    (b"release month: March\n", b"release month: M\xc3\xa4rz\n"),
    (b"release month: March\n", b"release month: mars\n"),
    (b"utc offset: +0000\n", b"utc offset: +1400\n"),
    (b"zone UTC here\n", b"zone CET here\n"),
])
def test_locale_timezone_rule_positive(first, second):
    f = one(first, second)
    assert f.cause is RootCause.LOCALE_OR_TIMEZONE
    assert f.confidence is Confidence.HIGH


def test_locale_timezone_needs_both_sides():
    f = one(b"shipped in March\n", b"shipped later\n")
    assert f.cause is not RootCause.LOCALE_OR_TIMEZONE


def test_uninitialized_memory_rule_xor_zeros():
    a = b"\x7fHDR" + b"\x00" * 16 + b"\x01"
    b = b"\x7fHDR" + b"\x99\x88\x77\x66" * 4 + b"\x01"
    f = one(a, b)
    assert f.cause is RootCause.UNINITIALIZED_MEMORY
    assert f.confidence is Confidence.MEDIUM


def test_uninitialized_memory_needs_one_zero_side():
    a = b"\x7fHDR" + b"\x11" * 16 + b"\x01"
    b = b"\x7fHDR" + b"\x99" * 16 + b"\x01"
    f = one(a, b)
    assert f.cause is RootCause.UNKNOWN


def test_unknown_fallback_keeps_evidence():
    f = one(b"completely different\n", b"other thing entirely\n")
    assert f.cause is RootCause.UNKNOWN
    assert f.confidence is Confidence.LOW
    assert "completely different" in f.evidence[0]
    assert "other thing entirely" in f.evidence[1]


def test_unknown_text_evidence_is_both_sides_cut_to_120_characters():
    first = "\n".join(["alpha beta gamma"] * 10)
    second = "\n".join(["delta epsilon zeta"] * 10)
    f = one(first.encode() + b"\n", second.encode() + b"\n")
    assert f.cause is RootCause.UNKNOWN
    assert f.evidence == (first[:120], second[:120])
    assert len(f.evidence[0]) == len(f.evidence[1]) == 120


def test_unknown_byte_ranges_evidence_is_the_first_range_hex():
    # two ranges, a 100-byte equal run apart, neither zero on one side only
    a = b"\x7fHDR" + b"\x11" * 16 + b"\x01" * 100 + b"\x33"
    b = b"\x7fHDR" + b"\x99" * 16 + b"\x01" * 100 + b"\x44"
    assert len(compare_bytes(a, b).detail.ranges) == 2
    f = one(a, b)
    assert f.cause is RootCause.UNKNOWN
    assert f.confidence is Confidence.LOW
    assert f.evidence == ("11" * 16, "99" * 16)
    # a side with no bytes in the range reads "(empty)"
    f = one(b"\x00\x01\x02\x03" + b"\x11" * 4, b"\x00\x01\x02\x03")
    assert f.cause is RootCause.UNKNOWN
    assert f.evidence == ("11111111", "(empty)")


def test_unknown_byte_ranges_evidence_without_ranges_is_empty():
    node = DiffNode("blob", Format.BINARY, Status.DIFFERS, ByteRanges(()))
    assert classify(node) == [
        RootCauseFinding(RootCause.UNKNOWN, "blob", Confidence.LOW, ("", ""))]


def test_unknown_meta_evidence_outside_the_metadata_fields_is_empty():
    node = DiffNode("t!f", Format.TEXT, Status.DIFFERS,
                    MetaDiff((("size", "1", "2"), ("mtime", "100", "200"))))
    assert classify(node) == [
        RootCauseFinding(RootCause.UNKNOWN, "t!f", Confidence.LOW, ("", ""))]


def test_priority_timestamp_beats_build_path():
    f = one(
        b"built 2020-09-13 at /build/first/main.c\n",
        b"built 2022-03-15 at /build/second/main.c\n",
    )
    assert f.cause is RootCause.TIMESTAMP


def test_priority_canceling_dates_let_fs_ordering_fire():
    a = b"b.o 2020-09-13\na.o 2020-09-13\n"
    b = b"a.o 2020-09-13\nb.o 2020-09-13\n"
    f = one(a, b)
    assert f.cause is RootCause.FS_ORDERING


def test_classify_same_tree_is_empty():
    assert classify(compare_bytes(b"x", b"x")) == []


def test_classify_walks_whole_tree_sorted():
    ma = [Member(name="a.txt", content=b"built 2020-09-13\n"),
          Member(name="b.txt", content=b"tok 9f86d081884c7d65\n")]
    mb = [Member(name="a.txt", content=b"built 2022-03-15\n"),
          Member(name="b.txt", content=b"tok 60303ae22b998861\n")]
    findings = classify(compare_bytes(write_tar(ma), write_tar(mb), path="t"))
    assert [f.node_path for f in findings] == ["t!a.txt", "t!b.txt"]
    assert [f.cause for f in findings] == [RootCause.TIMESTAMP, RootCause.RANDOMNESS]


def test_default_epochs_match_the_stock_profiles():
    first = str(BASE_EPOCH).encode()
    second = str(BASE_EPOCH + CLOCK_SKEW_SECONDS).encode()
    f = one(b"t " + first + b"\n", b"t " + second + b"\n")
    assert f.cause is RootCause.TIMESTAMP


def test_findings_to_json_schema():
    findings = classify(compare_bytes(b"built 2020-09-13\n", b"built 2022-03-15\n"))
    doc = findings_to_json(findings)
    assert doc == [{
        "cause": "timestamp",
        "node_path": "artifact",
        "confidence": "high",
        "evidence": ["2020-09-13", "2022-03-15"],
    }]


def test_primary_finding_ordering():
    assert primary_finding([]) is None
    ma = [Member(name="f", content=b"one\n", mtime=100)]
    mb = [Member(name="f", content=b"two\n", mtime=200)]
    findings = classify(compare_bytes(write_tar(ma), write_tar(mb)))
    confidences = {f.confidence for f in findings}
    assert Confidence.MEDIUM in confidences and Confidence.LOW in confidences
    assert primary_finding(findings).confidence is Confidence.MEDIUM
    ts = classify(compare_bytes(b"at 2020-09-13\n", b"at 2022-03-15\n"))
    assert primary_finding(findings + ts).cause is RootCause.TIMESTAMP


# -- the text rules against the chain they were first written as -------------


def chain_classify_text(node: DiffNode, epochs: tuple[int, int]) -> RootCauseFinding:
    """Reference: the text rules tried one after another in the documented
    order (timestamp, build path, fs ordering, locale or timezone,
    randomness), with no shortcut for permuted lines."""
    minus_lines = [line[1:] for line in node.detail.hunks if line.startswith("-")]
    plus_lines = [line[1:] for line in node.detail.hunks if line.startswith("+")]
    minus, plus = "\n".join(minus_lines), "\n".join(plus_lines)

    def found(cause: RootCause, evidence: tuple[str, str]) -> RootCauseFinding:
        return RootCauseFinding(cause, node.path, Confidence.HIGH, evidence)

    only_minus, only_plus = _side_difference(
        _date_strings(minus, epochs), _date_strings(plus, epochs)
    )
    if only_minus or only_plus:
        return found(RootCause.TIMESTAMP, (
            only_minus[0] if only_minus else "", only_plus[0] if only_plus else ""))
    only_minus, only_plus = _side_difference(
        {m.group(0) for m in _ABS_PATH.finditer(minus)},
        {m.group(0) for m in _ABS_PATH.finditer(plus)},
    )
    for path_a in only_minus:
        for path_b in only_plus:
            if path_a.rsplit("/", 1)[-1] == path_b.rsplit("/", 1)[-1]:
                return found(RootCause.BUILD_PATH, (path_a, path_b))
    if minus_lines and sorted(minus_lines) == sorted(plus_lines):
        return found(RootCause.FS_ORDERING, (minus_lines[0], plus_lines[0]))
    only_minus, only_plus = _side_difference(_locale_tokens(minus), _locale_tokens(plus))
    if only_minus and only_plus:
        return found(RootCause.LOCALE_OR_TIMEZONE, (only_minus[0], only_plus[0]))
    only_minus, only_plus = _side_difference(
        _random_candidates(minus, epochs), _random_candidates(plus, epochs)
    )
    for token_a in only_minus:
        for token_b in only_plus:
            if len(token_a) == len(token_b):
                return found(RootCause.RANDOMNESS, (token_a, token_b))
    return RootCauseFinding(
        RootCause.UNKNOWN, node.path, Confidence.LOW, (minus[:120], plus[:120])
    )


#: Tokens by kind; an edit swaps a token for another of its kind.
_KINDS = (
    ("2021-03-09", "2021-03-09T12:30:45Z", "2022-01-01 00:00:00+01:00",
     "Tue, 09 Mar 2021 12:30:45 +0000", "Tue Mar  9 12:30:45 2021", "Mar  9 2021",
     str(BASE_EPOCH), str(BASE_EPOCH + CLOCK_SKEW_SECONDS), "1000000003"),
    ("/build/first/src/main.c", "/build/second/src/main.c", "/tmp/x/src/main.c",
     "/usr/lib/libz.so"),
    ("a3f9c2e1b4d5f6a7", "9f86d081884c7d65", "Zm9vYmFyYmF6cXV4", "0123456789ab"),
    ("March", "mars", "Montag", "UTC", "CEST", "+0100", "-05:00"),
    ("alpha", "build", "ok", "=", ":", "", "123456789"),
)

_LINE = st.lists(st.sampled_from([token for kind in _KINDS for token in kind]), max_size=5)


def _shuffled_or_edited(draw, line) -> tuple[list[str], list[str]]:
    """Two line lists, the second the first shuffled or edited; every line
    of the first is drawn from ``line`` and ends in a token of one or two
    chosen kinds, and edits swap such tokens."""
    kinds = draw(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=2, unique=True))
    chosen = [token for kind in kinds for token in kind]
    minus = draw(st.lists(
        st.tuples(line, st.sampled_from(chosen)).map(lambda t: [*t[0], t[1]]), max_size=8))
    if draw(st.booleans()):
        plus = draw(st.permutations(minus))
    else:
        plus = [list(line) for line in minus]
        for _ in range(draw(st.integers(1, 3))):
            edit = draw(st.sampled_from(["swap", "swap", "insert", "delete"]))
            at = draw(st.integers(0, len(plus)))
            spots = [(r, i) for r, line in enumerate(plus)
                     for i, token in enumerate(line) if token in chosen]
            if edit == "swap" and spots:
                r, i = draw(st.sampled_from(spots))
                kind = next(k for k in kinds if plus[r][i] in k)
                plus[r][i] = draw(st.sampled_from([t for t in kind if t != plus[r][i]]))
            elif edit == "delete" and at < len(plus):
                del plus[at]
            else:
                plus.insert(at, draw(line))
    return [" ".join(words) for words in minus], [" ".join(words) for words in plus]


@st.composite
def text_nodes(draw) -> DiffNode:
    """A TextDiff whose ``+`` lines are the ``-`` lines shuffled or edited."""
    minus, plus = _shuffled_or_edited(draw, _LINE)
    context = [" ".join(line) for line in draw(st.lists(_LINE, max_size=2))]
    return _text_node(minus, plus, context)


def _text_node(minus: list[str], plus: list[str], context: list[str] = ()) -> DiffNode:
    """A text node flagged ordering-only, as the comparator flags it, exactly
    when its ``-`` lines are a non-empty permutation of its ``+`` lines."""
    hunks = (f"@@ -1,{len(minus)} +1,{len(plus)} @@", *(" " + line for line in context),
             *("-" + line for line in minus), *("+" + line for line in plus))
    ordering_only = bool(minus) and sorted(minus) == sorted(plus)
    return DiffNode("t.txt", Format.TEXT, Status.DIFFERS, TextDiff(hunks, ordering_only))


@settings(max_examples=500, deadline=None)
@given(text_nodes(), st.sampled_from([_DEFAULT_EPOCHS, (1_000_000_000, 1_000_000_005)]))
@example(_text_node(["March a3f9c2e1b4d5f6a7"], ["mars 9f86d081884c7d65"]), _DEFAULT_EPOCHS)
@example(_text_node(["/build/first/src/main.c March"], ["/tmp/x/src/main.c mars"]),
         _DEFAULT_EPOCHS)
@example(_text_node(["b 2021-03-09", "a 2021-03-09"], ["a 2021-03-09", "b 2021-03-09"]),
         _DEFAULT_EPOCHS)
def test_text_rules_match_the_rule_chain(node, epochs):
    assert classify(node, epochs) == [chain_classify_text(node, epochs)]


#: Lines that may begin like a unified diff's ``--- ``/``+++ `` file headers
#: once they carry a ``-`` or ``+`` mark.
_HEADER_LIKE_LINE = st.tuples(st.sampled_from(["--", "++", "ok"]), _LINE).map(
    lambda t: [t[0], *t[1]])


@st.composite
def text_pairs(draw) -> tuple[bytes, bytes]:
    """Two texts whose middle lines are shuffled or edited, between shared
    head and tail lines."""
    minus, plus = _shuffled_or_edited(draw, _HEADER_LIKE_LINE)
    head, tail = ([" ".join(line) for line in draw(st.lists(_HEADER_LIKE_LINE, max_size=3))]
                  for _ in range(2))
    return tuple(("".join(line + "\n" for line in head + middle + tail)).encode()
                 for middle in (minus, plus))


@settings(max_examples=300, deadline=None)
@given(text_pairs(), st.sampled_from([_DEFAULT_EPOCHS, (1_000_000_000, 1_000_000_005)]))
@example((b"-- a 2021-03-09\nok\n", b"ok\n-- a 2021-03-09\n"), _DEFAULT_EPOCHS)
@example((b"-- /build/first/src/main.c\n", b"-- /tmp/x/src/main.c\n"), _DEFAULT_EPOCHS)
def test_compared_text_matches_the_rule_chain_over_difflib(pair, epochs):
    a, b = pair
    got = [(f.cause, f.confidence) for f in classify(compare_bytes(a, b, "t.txt"), epochs)]
    if a == b:
        assert got == []
        return
    lines = difflib.unified_diff(a.decode().splitlines(), b.decode().splitlines(), lineterm="")
    hunks = tuple(lines)[2:]  # without the ---/+++ file headers
    want = chain_classify_text(
        DiffNode("t.txt", Format.TEXT, Status.DIFFERS, TextDiff(hunks)), epochs)
    assert got == [(want.cause, want.confidence)]
