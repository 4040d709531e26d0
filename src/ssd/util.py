"""Small shared helpers: input files and saved envelopes, canonical JSON,
hashing, seeded RNG streams, tables."""

from __future__ import annotations

import hashlib
import json
import os
from typing import IO, Any, Callable, Iterable, Sequence

import numpy as np

from .errors import DataError, FormatError


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def open_input(path: str, kind: str, newline: str | None = None) -> IO[str]:
    """Open a file the user named for reading as UTF-8 text. A path that
    cannot be opened is a DataError, and bytes that are not UTF-8 a
    FormatError, each naming the kind of file."""
    try:
        fh = open(path, encoding="utf-8", newline=newline)
    except FileNotFoundError:
        raise DataError(f"{kind} file not found: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot open {kind} file {path}: {exc.strerror}") from None
    try:
        # decode it all now, in bounded chunks, so no loader meets a bad byte
        while fh.read(1 << 14):
            pass
    except UnicodeDecodeError as exc:
        fh.close()
        raise FormatError(f"{kind} file {path} is not UTF-8: {exc.reason}") from None
    fh.seek(0)
    return fh


def open_output(path: str, kind: str, mode: str = "w") -> IO[str]:
    """Open a file the user named for writing as UTF-8 text; a path that
    cannot be written is a DataError naming the kind of file."""
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot write {kind} file {path}: {exc.strerror}") from None


def check_output(path: str, kind: str) -> None:
    """Raise now the DataError that `open_output` would raise later, so a
    long job does not run for an output it cannot write. Whatever is at
    `path` stays as it was."""
    existed = os.path.lexists(path)
    open_output(path, kind, "a").close()
    if not existed:
        os.remove(path)


def read_envelope(path: str, kind: str) -> Any:
    """The JSON value of a saved model, pipeline or cascade file."""
    with open_input(path, kind) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from None


def check_envelope(env: Any, fmt: str, kind: str) -> None:
    """Reject anything but a dict tagged with format `fmt`."""
    if not isinstance(env, dict) or env.get("format") != fmt:
        found = env.get("format") if isinstance(env, dict) else type(env).__name__
        raise FormatError(f"expected a {fmt} {kind} file, got format {found!r}")


def read_section(name: str, read: Callable[[], Any], kind: str) -> Any:
    """`read()` of one section of a saved `kind` file, whose missing or
    mistyped parts are a FormatError that names the section."""
    try:
        return read()
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(
            f"saved {kind} section {name!r} is missing or malformed: {exc!r}"
        ) from None


def write_envelope(path: str, env: dict, kind: str) -> None:
    # serialize first, so a value JSON cannot hold leaves the file untouched
    text = canonical_json(env) + "\n"
    with open_output(path, kind) as fh:
        fh.write(text)


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def fingerprint(obj: Any) -> str:
    """Stable hex digest of a JSON-serializable object."""
    return sha256_hex(canonical_json(obj))


def _entropy(part: int | str) -> int:
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode("utf-8")).digest()[:8], "big")
    return int(part) & 0xFFFFFFFFFFFFFFFF


def derive_rng(seed: int, *path: int | str) -> np.random.Generator:
    """Independent RNG stream for (seed, unit path), schedule-invariant.

    Every seeded component (fold, one-vs-rest class, forest tree, ...) draws
    from its own stream so concurrent execution cannot reorder randomness.
    """
    entropy = [_entropy(seed)] + [_entropy(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *path: int | str) -> int:
    """Scalar seed for a (seed, unit path) pair, for APIs that take an int."""
    return int(derive_rng(seed, *path).integers(0, 2**63))


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Aligned plain-text table with a header separator line."""
    materialized = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in materialized) for i in range(len(headers))]
    lines = []
    for n, row in enumerate(materialized):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    body = ["| " + " | ".join(map(str, headers)) + " |",
            "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        body.append("| " + " | ".join(map(str, row)) + " |")
    return "\n".join(body)
