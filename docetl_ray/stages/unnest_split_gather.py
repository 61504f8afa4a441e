"""Row-explosion and chunk-context stages: docetl ``unnest`` / ``split`` /
``gather`` parity (SURVEY.md §2.1; reference
``/root/reference/docetl/operations/unnest.py:125-184``,
``operations/split.py:76-118``, ``operations/gather.py:113-260``).

``unnest`` is Arrow-native (``list_flatten`` + ``list_parent_indices`` —
no Python row loop).  ``split`` emits the reference's metadata columns
``{split_key}_chunk`` / ``{name}_id`` / ``{name}_chunk_num`` but with a
*deterministic* document id (md5 of content) instead of uuid4
(``split.py:86-93``) so runs are reproducible.  ``gather`` regroups by
doc id (one keyed shuffle), orders chunks, and renders peripheral
context with the reference's skipped-content markers
(``gather.py:107-109`` ``{content_key}_rendered``).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_TOKEN_RE = re.compile(r"\S+")


def unnest(ds, key: str, *, keep_empty: bool = False):
    """Explode a list column into one row per element, or expand a struct
    column's fields into top-level columns (reference unnest semantics:
    key preservation invariant, ``unnest.py:186-191``)."""

    def fn(batch: pa.Table) -> pa.Table:
        col = batch[key]
        typ = col.type
        if pa.types.is_struct(typ):
            out = batch
            for f in typ:
                fld = pc.struct_field(col, f.name)
                name = f.name
                if name in out.column_names:
                    out = out.set_column(out.column_names.index(name), name, fld)
                else:
                    out = out.append_column(name, fld)
            return out
        if not (pa.types.is_list(typ) or pa.types.is_large_list(typ)):
            raise TypeError(f"unnest key {key!r} must be list or struct, got {typ}")
        combined = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        parents = pc.list_parent_indices(combined)
        flat = pc.list_flatten(combined)
        others = batch.drop_columns([key]).take(parents)
        out = others.append_column(key, flat)
        if keep_empty:
            lengths = pc.list_value_length(combined)
            empty_mask = pc.fill_null(pc.equal(lengths, 0), True)
            empties = batch.filter(empty_mask).drop_columns([key])
            empties = empties.append_column(
                key, pa.nulls(empties.num_rows, typ.value_type)
            )
            out = pa.concat_tables([out, empties], promote_options="permissive")
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


def _doc_id(content: str) -> str:
    return hashlib.md5(content.encode("utf-8")).hexdigest()


def split(
    ds,
    split_key: str,
    *,
    name: str = "split",
    method: str = "token_count",
    token_count: int = 100,
    delimiter: str = "\n\n",
    num_splits_to_group: int = 1,
):
    """Chunk a text column; one output row per chunk.

    method="token_count": whitespace tokens, ``token_count`` per chunk
    (reference uses tiktoken, ``split.py:76-94``; we pin a whitespace
    tokenizer — deterministic, no model download).
    method="delimiter": split on ``delimiter``, group
    ``num_splits_to_group`` pieces per chunk (``split.py:96-118``).

    Emits ``{split_key}_chunk``, ``{name}_id`` (md5 of the document
    content — deterministic), ``{name}_chunk_num`` (1-based).

    Recast divergence (deliberate): the reference assigns a random
    ``uuid4`` per input document (``split.py:86-93``), so two documents
    with byte-identical content keep distinct ids; here the id is a
    content hash, so byte-identical documents SHARE a split id and a
    downstream reduce on ``{name}_id`` (e.g. the optimizer's
    split/gather/submap/combine rewrite) combines them into one output
    row.  We trade that edge case for reproducible ids that the DuckDB
    oracles can recompute exactly.
    """

    def fn(batch: pa.Table) -> pa.Table:
        return split_batch(
            batch, split_key, name=name, method=method,
            token_count=token_count, delimiter=delimiter,
            num_splits_to_group=num_splits_to_group,
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def split_batch(
    batch: pa.Table,
    split_key: str,
    *,
    name: str = "split",
    method: str = "token_count",
    token_count: int = 100,
    delimiter: str = "\n\n",
    num_splits_to_group: int = 1,
) -> pa.Table:
    """One batch of ``split`` — module-level so the MOAR plan simulator
    (``moar.py``) chunks sample rows through the exact code the Ray
    stage executes."""
    texts = batch[split_key].to_pylist()
    parent_idx: list[int] = []
    chunks: list[str] = []
    ids: list[str] = []
    nums: list[int] = []
    for i, text in enumerate(texts):
        text = text or ""
        if method == "token_count":
            toks = _TOKEN_RE.findall(text)
            pieces = [
                " ".join(toks[j : j + token_count])
                for j in range(0, len(toks), token_count)
            ] or [""]
        else:
            parts = text.split(delimiter)
            pieces = [
                delimiter.join(parts[j : j + num_splits_to_group])
                for j in range(0, len(parts), num_splits_to_group)
            ]
        did = _doc_id(text)
        for cn, piece in enumerate(pieces, start=1):
            parent_idx.append(i)
            chunks.append(piece)
            ids.append(did)
            nums.append(cn)
    out = batch.take(pa.array(parent_idx, pa.int64()))
    out = out.append_column(f"{split_key}_chunk", pa.array(chunks, pa.string()))
    out = out.append_column(f"{name}_id", pa.array(ids, pa.string()))
    return out.append_column(f"{name}_chunk_num", pa.array(nums, pa.int64()))


def _peripheral_sections(
    rows: list[dict], config: dict, content_key: str, order_key: str
) -> list[str]:
    """Reference ``process_peripheral_chunks`` (``gather.py:183-258``):
    walk the peripheral rows, rendering head (first ``count``), tail
    (last ``count``) and — only if configured — middle sections; every
    section may read a different ``content_key`` (a summary column gets
    a ``(Summary)`` suffix); uncovered stretches collapse to one
    ``[... N characters skipped ...]`` marker."""
    parts: list[str] = []
    total = len(rows)
    head_count = int(config.get("head", {}).get("count", 0))
    tail_count = int(config.get("tail", {}).get("count", 0))
    in_skip = False
    skip_chars = 0
    for i, row in enumerate(rows):
        if i < head_count:
            section = "head"
        elif i >= total - tail_count:
            section = "tail"
        elif "middle" in config:
            section = "middle"
        else:
            skip_chars = (skip_chars if in_skip else 0) + len(str(row[content_key]))
            in_skip = True
            continue
        if in_skip:
            parts.append(f"[... {skip_chars} characters skipped ...]")
            in_skip = False
            skip_chars = 0
        section_key = config.get(section, {}).get("content_key", content_key)
        suffix = " (Summary)" if section_key != content_key else ""
        parts.append(f"[Chunk {row[order_key]}{suffix}]")
        parts.append(f"{row[section_key]}")
    if in_skip:
        parts.append(f"[... {skip_chars} characters skipped ...]")
    return parts


def _header_list(v) -> list:
    """Normalize a header-column cell to ``list[dict]`` — pandas groups
    hand list<struct> Arrow cells over as numpy object arrays (ambiguous
    truthiness) or NaN for nulls."""
    if v is None or isinstance(v, float):  # None / NaN
        return []
    if isinstance(v, list):
        return v
    try:
        return list(v)
    except TypeError:
        return []


def _hierarchy_headers(
    current: dict, prefix_rows: list[dict], doc_header_key: str | None
) -> str:
    """Reference ``render_hierarchy_headers`` (``gather.py:259-327``):
    maintain the latest header seen per level across all chunks up to and
    including the current one (a higher-level header clears lower
    levels), then render the chain of levels ABOVE the current chunk's
    highest own header as ``# h1 > ## h2`` under ``_Current Section:_``."""
    if not doc_header_key:
        return ""
    own = _header_list(current.get(doc_header_key))
    if not own:
        return ""
    highest = None
    for h in own:
        lvl = (h or {}).get("level")
        if lvl is not None and (highest is None or lvl < highest):
            highest = lvl
    hierarchy: dict[int, str | None] = {}
    for row in prefix_rows:
        for h in _header_list(row.get(doc_header_key)):
            try:
                header, level = h["header"], h["level"]
                if header and level:
                    hierarchy[level] = header
                # reference (gather.py:305-315) runs the lower-level clear
                # for EVERY entry — an entry with empty header text but a
                # valid level still clears levels below it; a missing key
                # or non-int level aborts the whole render with "".
                for lower in range(level + 1, len(hierarchy) + 1):
                    if lower in hierarchy:
                        hierarchy[lower] = None
            except Exception:
                return ""
    rendered = " > ".join(
        f"{'#' * lvl} {hdr}"
        for lvl, hdr in sorted(hierarchy.items())
        if hdr is not None and (highest is None or lvl < highest)
    )
    return f"_Current Section:_ {rendered}" if rendered else ""


def is_reference_gather(op: dict) -> bool:
    """One dispatch rule for gather configs, shared by the YAML runner
    and the MOAR plan simulator (they must agree byte-for-byte): the
    reference-form renderer handles per-direction head/middle/tail
    section dicts and custom main-chunk markers; plain ints route to the
    simplified previous/next-count surface."""
    pc_cfg = op.get("peripheral_chunks") or {}
    return ("main_chunk_start" in op or "main_chunk_end" in op
            or any(isinstance(v, dict) for v in pc_cfg.values()))


def gather_reference(
    ds,
    content_key: str,
    doc_id_key: str,
    order_key: str,
    *,
    peripheral_chunks: dict | None = None,
    doc_header_key: str | None = None,
    main_chunk_start: str = "--- Begin Main Chunk ---",
    main_chunk_end: str = "--- End Main Chunk ---",
):
    """Full reference-parity gather (``gather.py:113-327``): per chunk,
    render ``--- Previous Context ---`` (peripheral sections of all
    earlier chunks per ``peripheral_chunks["previous"]``), hierarchy
    headers, the main chunk between the configurable start/end markers,
    and ``--- Next Context ---`` likewise.  ``peripheral_chunks`` is the
    reference's config dict: ``{"previous"|"next": {"head"|"middle"|
    "tail": {"count": N, "content_key": k}}}`` — head/tail need counts,
    middle takes everything in between (optionally from a summary
    column).  No config at all -> the rendered chunk is the bare
    content (``gather.py:141-143``).

    Distribution: one keyed shuffle on ``doc_id_key``; rendering is
    per-group string assembly (inherently row-wise, like the reference),
    bounded by document size, not corpus size."""
    peripheral_chunks = peripheral_chunks or {}

    def render_group(group: pd.DataFrame) -> pd.DataFrame:
        return gather_reference_render_group(
            group, content_key, order_key,
            peripheral_chunks=peripheral_chunks,
            doc_header_key=doc_header_key,
            main_chunk_start=main_chunk_start,
            main_chunk_end=main_chunk_end,
        )

    from .grouped import grouped_map

    return grouped_map(ds, doc_id_key, render_group)


def gather_reference_render_group(
    group: "pd.DataFrame",
    content_key: str,
    order_key: str,
    *,
    peripheral_chunks: dict | None = None,
    doc_header_key: str | None = None,
    main_chunk_start: str = "--- Begin Main Chunk ---",
    main_chunk_end: str = "--- End Main Chunk ---",
) -> "pd.DataFrame":
    """Per-group renderer behind ``gather_reference`` — module-level so
    the MOAR plan simulator renders byte-identical context to the Ray
    stage for reference-form (dict ``peripheral_chunks``) gathers."""
    peripheral_chunks = peripheral_chunks or {}
    group = group.sort_values(order_key, kind="mergesort").reset_index(drop=True)
    rows = group.to_dict("records")
    rendered = []
    for i, row in enumerate(rows):
        if not peripheral_chunks:
            rendered.append(str(row[content_key]))
            continue
        parts = ["--- Previous Context ---"]
        parts.extend(
            _peripheral_sections(
                rows[:i], peripheral_chunks.get("previous", {}),
                content_key, order_key,
            )
        )
        parts.append("--- End Previous Context ---\n")
        if headers := _hierarchy_headers(row, rows[: i + 1], doc_header_key):
            parts.append(headers)
        parts.extend(
            (main_chunk_start, f"{row[content_key]}", main_chunk_end,
             "\n--- Next Context ---")
        )
        parts.extend(
            _peripheral_sections(
                rows[i + 1:], peripheral_chunks.get("next", {}),
                content_key, order_key,
            )
        )
        parts.append("--- End Next Context ---")
        rendered.append("\n".join(parts))
    group[f"{content_key}_rendered"] = rendered
    # pandas hands list<struct> Arrow cells over as numpy object
    # arrays, which Arrow can't convert back — normalize to lists
    import numpy as _np

    for col in group.columns:
        if group[col].dtype == object:
            group[col] = group[col].map(
                lambda v: v.tolist() if isinstance(v, _np.ndarray) else v
            )
    return group


def gather(
    ds,
    content_key: str,
    doc_id_key: str,
    order_key: str,
    *,
    previous_count: int = 1,
    next_count: int = 1,
    doc_header_key: str | None = None,
):
    """Reassemble chunk context: group by doc id, order by chunk number,
    render each chunk with surrounding peripheral chunks and skip markers
    (simplified count-based rendering; the full reference config surface
    — head/middle/tail sections, summary content keys, hierarchy headers,
    custom main-chunk markers, ``gather.py:113-327`` — is
    ``gather_reference``).  One keyed shuffle on the doc id."""

    def render_group(group: pd.DataFrame) -> pd.DataFrame:
        return gather_render_group(
            group, content_key, order_key,
            previous_count=previous_count, next_count=next_count,
            doc_header_key=doc_header_key,
        )

    from .grouped import grouped_map

    return grouped_map(ds, doc_id_key, render_group)


def gather_render_group(
    group: "pd.DataFrame",
    content_key: str,
    order_key: str,
    *,
    previous_count: int = 1,
    next_count: int = 1,
    doc_header_key: str | None = None,
) -> "pd.DataFrame":
    """One document group of ``gather`` — module-level so the MOAR plan
    simulator (``moar.py``) renders sample chunks through the exact code
    the Ray stage executes."""
    group = group.sort_values(order_key, kind="mergesort").reset_index(drop=True)
    n = len(group)
    rendered = []
    for i in range(n):
        parts = []
        if doc_header_key is not None:
            hv = group.at[i, doc_header_key]
            # list-valued header cells (the docetl headers shape —
            # list<struct{header,level}>) arrive as lists/ndarrays, where
            # pd.notna returns an ARRAY; they render as markdown headers,
            # one line per entry, like the reference's
            # render_hierarchy_headers (gather.py:262)
            if isinstance(hv, (list, tuple, np.ndarray)):
                md = "\n".join(
                    "#" * int(h["level"]) + " " + str(h["header"])
                    for h in _header_list(hv)
                    if isinstance(h, dict) and h.get("header") and h.get("level")
                )
                if md:
                    parts.append(md)
            elif pd.notna(hv):
                parts.append(str(hv))
        lo = max(0, i - previous_count)
        if lo > 0:
            skipped = sum(len(str(group.at[j, content_key])) for j in range(0, lo))
            parts.append(f"[... {skipped} characters skipped ...]")
        for j in range(lo, i):
            parts.append(f"--- Previous Chunk {int(group.at[j, order_key])} ---")
            parts.append(str(group.at[j, content_key]))
        parts.append("--- Begin Main Chunk ---")
        parts.append(str(group.at[i, content_key]))
        parts.append("--- End Main Chunk ---")
        hi = min(n, i + 1 + next_count)
        for j in range(i + 1, hi):
            parts.append(f"--- Next Chunk {int(group.at[j, order_key])} ---")
            parts.append(str(group.at[j, content_key]))
        if hi < n:
            skipped = sum(len(str(group.at[j, content_key])) for j in range(hi, n))
            parts.append(f"[... {skipped} characters skipped ...]")
        rendered.append("\n".join(parts))
    group[f"{content_key}_rendered"] = rendered
    return group
