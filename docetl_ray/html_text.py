"""Deterministic, byte-stable html -> text extraction.

This is the per-row parity invariant of the engine (BASELINE.json:6,15):
the extracted ``text`` for a given ``html`` payload must be byte-identical
across workers, runs, and cluster sizes.  It is therefore pure Python +
compiled ``re`` (C-speed) with no locale, library-version, or ordering
dependence — the reference's ``extract``/parsing-tool role
(``/root/reference/docetl/operations/extract.py:259-383``,
``docetl/parsing_tools.py:156-168``) recast as a deterministic Arrow batch
function.

Algorithm (pinned; do NOT change without regenerating golden fixtures):
  1. decode bytes as UTF-8 with ``errors="replace"``
  2. drop ``<script>``/``<style>``/``<!-- -->`` blocks (case-insensitive)
  3. block-level tags become ``\\n``; all other tags become ``""``
  4. decode the fixed entity set &amp; &lt; &gt; &quot; &#39; &apos; &nbsp;
  5. per line: collapse internal whitespace runs to one space, strip
  6. drop empty lines, join with ``\\n``

The implementation is an exact C-level equivalent of these steps: the
whitespace of step 5 is collapsed on the bytes, before step 1's decode,
with ``bytes.translate`` and ``bytes.replace`` instead of one regex match
per space.  Space, tab, CR, FF and VT are ASCII bytes, and a UTF-8
decode with ``errors="replace"`` never folds an ASCII byte into a
multi-byte sequence, so collapsing them first decodes to the same text.
Lines are then stripped with ``str.strip`` (all Unicode whitespace, as
before) and empty ones dropped.
"""

from __future__ import annotations

import re

import pyarrow as pa

_DROP_BLOCKS = re.compile(
    rb"(?is)<(script|style)\b.*?</\1\s*>|<!--.*?-->",
)
_BLOCK_TAGS = re.compile(
    rb"(?is)</?(p|div|br|li|ul|ol|tr|td|th|table|h[1-6]|title|head|body|html|"
    rb"section|article|header|footer|nav|blockquote|pre|hr|form)\b[^>]*>"
)
_ANY_TAG = re.compile(rb"(?s)<[^>]*>")
_ENTITIES = [
    (b"&lt;", b"<"),
    (b"&gt;", b">"),
    (b"&quot;", b'"'),
    (b"&#39;", b"'"),
    (b"&apos;", b"'"),
    (b"&nbsp;", b" "),
    (b"&amp;", b"&"),  # last, so &amp;lt; -> &lt; (single pass, pinned order)
]
_WS_TO_SPACE = bytes.maketrans(b"\t\r\f\v", b"    ")


def extract_text_bytes(html: bytes | None) -> str:
    """Pure html->text for one payload.  Deterministic; see module doc."""
    if html is None:
        return ""
    b = _DROP_BLOCKS.sub(b"", html)
    b = _BLOCK_TAGS.sub(b"\n", b)
    b = _ANY_TAG.sub(b"", b)
    if b"&" in b:
        for ent, rep in _ENTITIES:
            b = b.replace(ent, rep)
    # step 5's run collapse, on the bytes: each pass halves every run
    b = b.translate(_WS_TO_SPACE)
    while b"  " in b:
        b = b.replace(b"  ", b" ")
    s = b.decode("utf-8", errors="replace")
    return "\n".join(filter(None, [line.strip() for line in s.split("\n")]))


def extract_text_batch(batch: pa.Table, html_col: str = "html", text_col: str = "text") -> pa.Table:
    """Arrow batch fn: add/replace ``text_col`` extracted from ``html_col``.

    Used as ``ds.map_batches(extract_text_batch, batch_format="pyarrow")``.
    Each row is a handful of compiled-regex and ``bytes`` passes, all in
    C; rows with null html yield "".
    """
    html = batch[html_col]
    texts = [extract_text_bytes(v) for v in html.to_pylist()]
    arr = pa.array(texts, type=pa.string())
    if text_col in batch.column_names:
        batch = batch.drop_columns([text_col])
    return batch.append_column(text_col, arr)
