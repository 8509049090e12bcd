"""Root-cause classification of difference trees.

Each differing node with evidence gets run through an ordered rule list;
the first rule that fires names the cause. The rules mechanize the familiar
diagnosis patterns: archive metadata drift, embedded build dates, absolute
build paths, directory-order dependence, locale and timezone leakage,
uncontrolled randomness, and unzeroed padding. When nothing fires the node
is reported as Unknown rather than guessed at; a classifier of this kind
cannot wholly replace an engineer reading the diff.
"""

from __future__ import annotations

import enum
import math
import re
from collections.abc import Callable
from dataclasses import dataclass

from .compare import ByteRange, ByteRanges, DiffNode, MetaDiff, Status, TextDiff
from .formats import META_FIELDS
from .varenv import BASE_EPOCH, CLOCK_SKEW_SECONDS


class RootCause(enum.Enum):
    TIMESTAMP = "timestamp"
    BUILD_PATH = "build_path"
    FS_ORDERING = "fs_ordering"
    ARCHIVE_METADATA = "archive_metadata"
    RANDOMNESS = "randomness"
    UNINITIALIZED_MEMORY = "uninitialized_memory"
    LOCALE_OR_TIMEZONE = "locale_or_timezone"
    UNKNOWN = "unknown"


class Confidence(enum.Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"

    def rank(self) -> int:
        return {"high": 0, "medium": 1, "low": 2}[self.value]


@dataclass(frozen=True)
class RootCauseFinding:
    """A likely cause of one difference, the node it was found at, and the
    first and second builds' evidence for it."""

    cause: RootCause
    node_path: str
    confidence: Confidence
    evidence: tuple[str, str]


#: Half-width of the window in which a bare 9-10 digit integer is taken to
#: be a Unix timestamp: five years around either build's clock.
_EPOCH_WINDOW = 157_788_000

_DEFAULT_EPOCHS = (BASE_EPOCH, BASE_EPOCH + CLOCK_SKEW_SECONDS)

_MONTHS = "Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec"
_WEEKDAYS = "Mon|Tue|Wed|Thu|Fri|Sat|Sun"

_DATE_PATTERNS = (
    # ISO-8601 date, optionally with time and zone designator.
    re.compile(
        r"\b\d{4}-\d{2}-\d{2}(?:[T ]\d{2}:\d{2}:\d{2}(?:Z|[+-]\d{2}:?\d{2})?)?\b"
    ),
    # RFC-2822: Tue, 09 Mar 2021 12:30:45 +0000
    re.compile(
        rf"\b(?:{_WEEKDAYS}), \d{{1,2}} (?:{_MONTHS}) \d{{4}}"
        r" \d{2}:\d{2}:\d{2}(?: [+-]\d{4})?"
    ),
    # ctime: Tue Mar  9 12:30:45 2021
    re.compile(
        rf"\b(?:{_WEEKDAYS}) (?:{_MONTHS}) [ \d]?\d \d{{2}}:\d{{2}}:\d{{2}} \d{{4}}\b"
    ),
    # The C preprocessor's date shape: Mar  9 2021 (day space-padded).
    re.compile(rf"\b(?:{_MONTHS}) [ \d]?\d \d{{4}}\b"),
)

_EPOCH_INT = re.compile(r"\b\d{9,10}\b")

_ABS_PATH = re.compile(r"(?<![\w/])/[\w.+-]+(?:/[\w.+-]+)+")

_RANDOM_TOKEN = re.compile(r"\b[A-Za-z0-9+/]{12,}={0,2}\b")

_TZ_OFFSET = re.compile(r"(?<![\d:])[+-]\d{2}:?\d{2}\b")

_MONTH_DAY_WORDS = {
    # English
    "january", "february", "march", "april", "may", "june", "july", "august",
    "september", "october", "november", "december",
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday",
    # French
    "janvier", "février", "mars", "avril", "mai", "juin", "juillet", "août",
    "septembre", "octobre", "novembre", "décembre",
    "lundi", "mardi", "mercredi", "jeudi", "vendredi", "samedi", "dimanche",
    # German
    "januar", "februar", "märz", "april", "juni", "juli", "august",
    "september", "oktober", "november", "dezember",
    "montag", "dienstag", "mittwoch", "donnerstag", "freitag", "samstag", "sonntag",
}

_TZ_ABBREVS = {
    "utc", "gmt", "cet", "cest", "eet", "eest", "est", "edt", "cst", "cdt",
    "mst", "mdt", "pst", "pdt", "bst", "jst", "nzst", "nzdt", "lint",
}

_WORD = re.compile(r"[^\W\d_]+", re.UNICODE)


def _side_difference(first: set[str], second: set[str]) -> tuple[list[str], list[str]]:
    return sorted(first - second), sorted(second - first)


def _matching_pair(
    first: set[str], second: set[str], key: Callable[[str], object]
) -> tuple[str, str] | None:
    """The first pair of one-sided tokens, one from each side, whose ``key``
    agrees, in sorted order of the first side and then of the second."""
    only_first, only_second = _side_difference(first, second)
    return next(((a, b) for a in only_first for b in only_second if key(a) == key(b)), None)


def shannon_entropy(token: str) -> float:
    """Bits per character over the token's own character distribution."""
    if not token:
        return 0.0
    counts: dict[str, int] = {}
    for ch in token:
        counts[ch] = counts.get(ch, 0) + 1
    total = len(token)
    return -sum((n / total) * math.log2(n / total) for n in counts.values())


def _date_strings(text: str, epochs: tuple[int, int]) -> set[str]:
    found: set[str] = set()
    for pattern in _DATE_PATTERNS:
        found.update(m.group(0) for m in pattern.finditer(text))
    for m in _EPOCH_INT.finditer(text):
        value = int(m.group(0))
        if any(abs(value - epoch) <= _EPOCH_WINDOW for epoch in epochs):
            found.add(m.group(0))
    return found


def _locale_tokens(text: str) -> set[str]:
    tokens = {w.group(0).lower() for w in _WORD.finditer(text)}
    found = {t for t in tokens if t in _MONTH_DAY_WORDS or t in _TZ_ABBREVS}
    found.update(m.group(0) for m in _TZ_OFFSET.finditer(text))
    return found


def _random_candidates(text: str, epochs: tuple[int, int]) -> set[str]:
    out = set()
    for m in _RANDOM_TOKEN.finditer(text):
        token = m.group(0)
        if _date_strings(token, epochs):
            continue
        body = token.rstrip("=")
        is_digits = body.isdigit()
        is_hex = bool(re.fullmatch(r"[0-9a-f]+|[0-9A-F]+", body))
        has_digits = sum(ch.isdigit() for ch in body) >= 2
        if not (is_digits or is_hex or has_digits):
            continue
        # About 1 in 10 000 uniformly random 32-hex tokens (a 128-bit id or
        # an MD5) has entropy <= 3.0, but none of 300 000 drawn fell to 2.5,
        # so long hex tokens get the lower cut-off.
        cutoff = 2.5 if is_hex and len(body) >= 32 else 3.0
        if shannon_entropy(token) > cutoff:
            out.add(token)
    return out


def _hex_pair(r: ByteRange) -> tuple[str, str]:
    return r.first_hex or "(empty)", r.second_hex or "(empty)"


# -- per-rule matchers ------------------------------------------------------
# Each rule gets only the evidence it reads and returns a match: the cause,
# its confidence and the two sides' evidence, or None. ``_classify_node``
# turns the first match into the node's finding.

_Match = tuple[RootCause, Confidence, tuple[str, str]]


def _rule_metadata(
    entries: tuple[tuple[str, str, str], ...], children: tuple[DiffNode, ...]
) -> _Match | None:
    """Archive metadata when every row is a member metadata field, else
    container ordering when there is an ``order`` row."""
    fields = {name for name, _, _ in entries}
    if fields and fields.issubset(META_FIELDS):
        content_same = all(c.status is Status.SAME for c in children)
        confidence = Confidence.HIGH if content_same else Confidence.MEDIUM
        first = " ".join(f"{n}={a}" for n, a, _ in entries)
        second = " ".join(f"{n}={b}" for n, _, b in entries)
        return RootCause.ARCHIVE_METADATA, confidence, (first, second)
    for name, first, second in entries:
        if name == "order":
            return RootCause.FS_ORDERING, Confidence.HIGH, (first, second)
    return None


def _rule_timestamp(minus: str, plus: str, epochs: tuple[int, int]) -> _Match | None:
    only_minus, only_plus = _side_difference(
        _date_strings(minus, epochs), _date_strings(plus, epochs)
    )
    if not only_minus and not only_plus:
        return None
    return RootCause.TIMESTAMP, Confidence.HIGH, (
        only_minus[0] if only_minus else "",
        only_plus[0] if only_plus else "",
    )


def _rule_build_path(minus: str, plus: str) -> _Match | None:
    pair = _matching_pair(
        {m.group(0) for m in _ABS_PATH.finditer(minus)},
        {m.group(0) for m in _ABS_PATH.finditer(plus)},
        key=lambda path: path.rsplit("/", 1)[-1],
    )
    return None if pair is None else (RootCause.BUILD_PATH, Confidence.HIGH, pair)


def _rule_locale_timezone(minus: str, plus: str) -> _Match | None:
    only_minus, only_plus = _side_difference(_locale_tokens(minus), _locale_tokens(plus))
    if not only_minus or not only_plus:
        return None
    return RootCause.LOCALE_OR_TIMEZONE, Confidence.HIGH, (only_minus[0], only_plus[0])


def _rule_randomness(minus: str, plus: str, epochs: tuple[int, int]) -> _Match | None:
    pair = _matching_pair(
        _random_candidates(minus, epochs), _random_candidates(plus, epochs), key=len
    )
    return None if pair is None else (RootCause.RANDOMNESS, Confidence.HIGH, pair)


def _rule_uninitialized_memory(ranges: tuple[ByteRange, ...]) -> _Match | None:
    for r in ranges:
        if r.first_zero != r.second_zero:
            return RootCause.UNINITIALIZED_MEMORY, Confidence.MEDIUM, _hex_pair(r)
    return None


def _classify_node(node: DiffNode, epochs: tuple[int, int]) -> RootCauseFinding:
    """The first rule that fires, in the order archive metadata, timestamp,
    build path, fs ordering, locale or timezone, randomness, uninitialized
    memory; each rule reads one kind of evidence. When none fires the node is
    Unknown, with the evidence its detail shows first.
    """
    detail = node.detail
    match: _Match | None = None
    evidence = ("", "")
    if isinstance(detail, MetaDiff):
        match = _rule_metadata(detail.entries, node.children)
    elif isinstance(detail, TextDiff):
        minus_lines = [line[1:] for line in detail.hunks if line.startswith("-")]
        plus_lines = [line[1:] for line in detail.hunks if line.startswith("+")]
        # difflib's -/+ lines are the two texts minus their matched lines, so
        # they are a permutation of each other only when the whole texts'
        # lines are: exactly the case the comparator flags ordering_only, so
        # the flag is the whole fs-ordering test. The two sides then hold the
        # same lines, so the timestamp and build-path rules, which fire on a
        # set difference of per-line matches, could not fire before this one.
        # An ordering-only summary holds one moved line per side.
        if detail.ordering_only:
            match = RootCause.FS_ORDERING, Confidence.HIGH, (minus_lines[0], plus_lines[0])
        else:
            minus, plus = "\n".join(minus_lines), "\n".join(plus_lines)
            match = (
                _rule_timestamp(minus, plus, epochs)
                or _rule_build_path(minus, plus)
                or _rule_locale_timezone(minus, plus)
                or _rule_randomness(minus, plus, epochs)
            )
            evidence = (minus[:120], plus[:120])
    elif isinstance(detail, ByteRanges) and detail.ranges:
        match = _rule_uninitialized_memory(detail.ranges)
        evidence = _hex_pair(detail.ranges[0])
    cause, confidence, evidence = match or (RootCause.UNKNOWN, Confidence.LOW, evidence)
    return RootCauseFinding(cause, node.path, confidence, evidence)


def classify(root: DiffNode, epochs: tuple[int, int] | None = None) -> list[RootCauseFinding]:
    """Produce one finding per differing node that carries evidence.

    ``epochs`` supplies the two builds' clock values for recognizing bare
    Unix-timestamp integers; it defaults to the stock profile pair's clocks.
    Findings come back sorted by node path (tree order breaks ties), and
    classification is total: nodes no rule explains are reported Unknown.
    """
    chosen = epochs if epochs is not None else _DEFAULT_EPOCHS
    findings: list[RootCauseFinding] = []

    def walk(node: DiffNode) -> None:
        if node.status is Status.DIFFERS and node.detail is not None:
            findings.append(_classify_node(node, chosen))
        for child in node.children:
            walk(child)

    walk(root)
    findings.sort(key=lambda f: f.node_path)
    return findings


def primary_finding(findings: list[RootCauseFinding]) -> RootCauseFinding | None:
    """The headline diagnosis: most confident first, then earliest path."""
    if not findings:
        return None
    return min(findings, key=lambda f: (f.confidence.rank(), f.node_path))


def findings_to_json(findings: list[RootCauseFinding]) -> list[dict]:
    return [
        {
            "cause": f.cause.value,
            "node_path": f.node_path,
            "confidence": f.confidence.value,
            "evidence": [f.evidence[0], f.evidence[1]],
        }
        for f in findings
    ]
