"""Comment-collection client: paginated fetching, duplicate removal, an
English-text heuristic, and seeded keyword/random sampling.

Network access goes through a transport callable so recorded responses can
replay offline. The wire format is the public comment-threads schema; only
`items[].id`, `items[].snippet.topLevelComment.snippet.textOriginal`, and
`nextPageToken` are consumed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable, Sequence

from .errors import (
    CredentialError,
    DataError,
    ExternalServiceError,
    NetworkError,
    UsageError,
)
from .preprocess import _WORD_RE, load_stopwords
from .util import derive_rng, open_input

API_URL = "https://www.googleapis.com/youtube/v3/commentThreads"
API_KEY_ENV = "SSD_YOUTUBE_API_KEY"
DEFAULT_ENGLISH_THRESHOLD = 0.06
_MAX_RETRIES = 3

COMMENTS_CSV_HEADER = ("id", "video_id", "text", "fetched_at")


@dataclass(frozen=True)
class RawComment:
    platform_id: str
    video_id: str
    text: str
    fetched_at: str  # ISO-8601 UTC

    def __post_init__(self) -> None:
        if not self.platform_id:
            raise DataError("comment platform_id must be non-empty")
        if not self.text.strip():
            raise DataError("comment text must be non-empty")


@dataclass(frozen=True)
class SamplePlan:
    keywords: tuple[str, ...]
    n_keyword: int
    n_random: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_keyword < 0 or self.n_random < 0:
            raise UsageError("sample sizes must be non-negative")
        for kw in self.keywords:
            if not kw:
                raise UsageError("keywords must be non-empty")
            if kw != kw.lower():
                raise UsageError(f"keywords must be lowercase, got {kw!r}")


class TransportFailure(Exception):
    """Raised by transports for connection-level failures (retryable)."""


# A transport maps request params to (http_status, parsed_json_body).
Transport = Callable[[dict], tuple[int, dict]]


class HttpTransport:
    """Real HTTPS transport; kept import-light until first use."""

    def __init__(self, timeout: float = 30.0) -> None:
        self.timeout = timeout

    def __call__(self, params: dict) -> tuple[int, dict]:
        import requests

        try:
            resp = requests.get(API_URL, params=params, timeout=self.timeout)
        except requests.RequestException as exc:
            raise TransportFailure(str(exc)) from None
        try:
            body = resp.json()
        except ValueError:
            body = {}
        return resp.status_code, body


class MockDirTransport:
    """Replays recorded JSON responses from a directory.

    Page N for video V lives in `<V>.page<N>.json`; page tokens follow the
    `pageN` convention. A file holding {"__error__": {"status": ..., "body":
    ...}} replays an HTTP error instead of a page.
    """

    def __init__(self, directory: str) -> None:
        if not os.path.isdir(directory):
            raise UsageError(f"mock directory not found: {directory}")
        self.directory = directory

    def __call__(self, params: dict) -> tuple[int, dict]:
        video_id = params["videoId"]
        token = params.get("pageToken")
        page = 1
        if token:
            match = re.fullmatch(r"page(\d+)", token)
            if not match:
                raise TransportFailure(f"unrecognized page token {token!r}")
            page = int(match.group(1))
        path = os.path.join(self.directory, f"{video_id}.page{page}.json")
        if not os.path.exists(path):
            # a missing recording is a broken fixture, not a flaky network
            raise DataError(
                f"no recorded response for video {video_id} page {page}"
            )
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if "__error__" in payload:
            err = payload["__error__"]
            return int(err["status"]), err.get("body", {})
        return 200, payload


def resolve_credentials(
    flag_value: str | None = None, mock_dir: str | None = None
) -> str:
    if flag_value:
        return flag_value
    from_env = os.environ.get(API_KEY_ENV)
    if from_env:
        return from_env
    if mock_dir is not None:
        return "mock"
    raise CredentialError(
        f"no API key: set {API_KEY_ENV} or pass --api-key"
    )


def _remote_message(body: dict) -> str:
    if isinstance(body, dict):
        err = body.get("error")
        if isinstance(err, dict):
            return str(err.get("message", "")) or "unspecified remote error"
    return "unspecified remote error"


def _is_quota_error(body: dict) -> bool:
    err = body.get("error", {}) if isinstance(body, dict) else {}
    reasons = [
        str(e.get("reason", "")) for e in err.get("errors", []) if isinstance(e, dict)
    ]
    blob = " ".join(reasons + [str(err.get("message", ""))]).lower()
    return "quota" in blob


def _get_with_retries(
    transport: Transport, params: dict, retry_delay: float, sleep
) -> dict:
    attempts = 0
    while True:
        failure = None
        try:
            status, body = transport(params)
        except TransportFailure as exc:
            failure = exc
            status, body = -1, {}
        if failure is None:
            if status == 200:
                return body
            message = _remote_message(body)
            if status in (401, 403):
                if _is_quota_error(body):
                    raise ExternalServiceError(f"quota exhausted: {message}")
                raise CredentialError(
                    f"credentials rejected (HTTP {status}): {message}"
                )
            if status != 429 and status < 500:
                raise ExternalServiceError(f"HTTP {status}: {message}")
        # connection failure or transient HTTP status: back off and retry
        attempts += 1
        if attempts > _MAX_RETRIES:
            if failure is not None:
                raise NetworkError(
                    f"service unreachable after {_MAX_RETRIES} retries: {failure}"
                )
            raise ExternalServiceError(
                f"HTTP {status} persisted after {_MAX_RETRIES} retries: "
                f"{_remote_message(body)}"
            )
        sleep(retry_delay * 2 ** (attempts - 1))


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _fetch_video(
    video_id: str,
    credentials: str,
    page_limit: int | None,
    transport: Transport,
    retry_delay: float,
    sleep,
    now: Callable[[], str],
) -> list[RawComment]:
    out: list[RawComment] = []
    token: str | None = None
    pages = 0
    while True:
        params = {
            "part": "snippet",
            "videoId": video_id,
            "key": credentials,
            "maxResults": 100,
            "textFormat": "plainText",
        }
        if token:
            params["pageToken"] = token
        body = _get_with_retries(transport, params, retry_delay, sleep)
        for item in body.get("items", []):
            platform_id = str(item.get("id", ""))
            snippet = item.get("snippet", {})
            text = str(
                snippet.get("topLevelComment", {}).get("snippet", {}).get(
                    "textOriginal", ""
                )
            )
            if platform_id and text.strip():
                out.append(RawComment(platform_id, video_id, text, now()))
        pages += 1
        token = body.get("nextPageToken")
        if not token or (page_limit is not None and pages >= page_limit):
            return out


def fetch_comments(
    video_ids: Sequence[str],
    credentials: str,
    page_limit: int | None = None,
    *,
    transport: Transport | None = None,
    jobs: int = 4,
    retry_delay: float = 0.5,
    sleep=time.sleep,
    now: Callable[[], str] = _utc_now,
) -> list[RawComment]:
    """Fetch all top-level comments for the given videos.

    Distinct videos may fetch concurrently; the result is sorted by
    (video_id, platform_id) so ordering never depends on arrival timing.
    """
    if not video_ids:
        raise UsageError("at least one video id is required")
    if jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    if page_limit is not None and page_limit < 1:
        raise UsageError(f"page_limit must be >= 1, got {page_limit}")
    if transport is None:
        transport = HttpTransport()

    def run(vid: str) -> list[RawComment]:
        return _fetch_video(
            vid, credentials, page_limit, transport, retry_delay, sleep, now
        )

    ids = list(video_ids)
    if jobs > 1 and len(ids) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            chunks = list(pool.map(run, ids))
    else:
        chunks = [run(vid) for vid in ids]
    merged = [c for chunk in chunks for c in chunk]
    merged.sort(key=lambda c: (c.video_id, c.platform_id))
    return merged


# ---------------------------------------------------------------------------
# cleaning and sampling


def _dedup_key(text: str) -> str:
    return "".join(text.split()).casefold()


def english_ratio(text: str, stopwords: frozenset[str]) -> float:
    tokens = [t.casefold() for t in _WORD_RE.findall(text)]
    if not tokens:
        return 0.0
    return sum(1 for t in tokens if t in stopwords) / len(tokens)


def dedup_and_filter(
    raw: Sequence[RawComment],
    english_threshold: float = DEFAULT_ENGLISH_THRESHOLD,
    stopwords: frozenset[str] | None = None,
) -> list[RawComment]:
    """Drop duplicate texts (first occurrence wins) and texts whose
    stop-word ratio falls below the English threshold."""
    if stopwords is None:
        stopwords = load_stopwords()
    seen: set[str] = set()
    out: list[RawComment] = []
    for c in raw:
        key = _dedup_key(c.text)
        if key in seen:
            continue
        seen.add(key)
        if english_ratio(c.text, stopwords) >= english_threshold:
            out.append(c)
    return out


def load_synonyms(path: str) -> tuple[str, ...]:
    """One lowercase keyword phrase per line; blanks and # comments skipped."""
    phrases = []
    with open_input(path, "synonyms") as fh:
        for lineno, line in enumerate(fh, start=1):
            phrase = line.strip()
            if not phrase or phrase.startswith("#"):
                continue
            if phrase != phrase.lower():
                raise DataError(
                    f"{path}:{lineno}: keyword phrases must be lowercase"
                )
            phrases.append(phrase)
    return tuple(phrases)


def keyword_sample(
    clean: Sequence[RawComment], plan: SamplePlan
) -> list[RawComment]:
    """Seeded sample: keyword-matching comments first, then a uniform draw
    from the untouched remainder. The two parts never overlap."""
    matching = [
        i
        for i, c in enumerate(clean)
        if any(kw in c.text.casefold() for kw in plan.keywords)
    ]
    if plan.n_keyword > len(matching):
        raise DataError(
            f"keyword pool has {len(matching)} comments but the plan needs "
            f"{plan.n_keyword} (short by {plan.n_keyword - len(matching)})"
        )
    rng = derive_rng(plan.seed, "keyword")
    picked = [matching[j] for j in rng.permutation(len(matching))[: plan.n_keyword]]
    taken = set(picked)
    remainder = [i for i in range(len(clean)) if i not in taken]
    if plan.n_random > len(remainder):
        raise DataError(
            f"remainder pool has {len(remainder)} comments but the plan needs "
            f"{plan.n_random} (short by {plan.n_random - len(remainder)})"
        )
    rng = derive_rng(plan.seed, "random")
    picked += [remainder[j] for j in rng.permutation(len(remainder))[: plan.n_random]]
    return [clean[i] for i in picked]


# ---------------------------------------------------------------------------
# CSV output


def comments_csv(comments: Sequence[RawComment]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COMMENTS_CSV_HEADER)
    for c in comments:
        writer.writerow([c.platform_id, c.video_id, c.text, c.fetched_at])
    return buf.getvalue()


def write_comments_csv(comments: Sequence[RawComment], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(comments_csv(comments))
