"""Pure-stdlib OOXML document parsers.

The reference's xlsx/docx/pptx parsing tools
(``docetl/parsing_tools.py:99-223``) are thin text extractors over
openpyxl / python-docx / python-pptx.  None of those libraries exist in
this environment — but the FORMATS are just zip archives of XML (ECMA-376
OOXML), so the same extractions are implemented here with ``zipfile`` +
``xml.etree``: no third-party codec needed.  Output shapes are kept
byte-compatible with the reference:

- ``xlsx_to_string`` — per-sheet, ``orientation="col"``: one
  ``"{header}: v1\\nv2..."`` block per column with a blank line between
  columns; ``"row"``: one ``"h1: v1 | h2: v2"`` line per data row
  (``parsing_tools.py:130-147``).  One divergence, documented: the
  reference's ``col_order`` filter compares header names against an
  ``iter_cols`` generator and therefore never matches (inert); here
  ``col_order`` does what its docstring says — selects/orders the named
  header columns.
- ``docx_to_string`` — ``"\\n"``-joined paragraph texts
  (``parsing_tools.py:173-185``); run text reproduces python-docx's
  mapping of ``w:t``/``w:tab``/``w:br``/``w:cr``.
- ``pptx_to_string`` — slide order from the presentation part, text of
  every top-level shape that has a text frame, ``doc_per_slide``
  grouping as in ``parsing_tools.py:188-223``.

Audio/OCR/vision parsers (whisper, paddleocr, azure-DI) remain honest
stubs in ``sources.py`` — those require models or network, not just a
file-format decoder.
"""

from __future__ import annotations

import re
import zipfile
from xml.etree import ElementTree as ET


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


# --------------------------------------------------------------------------
# xlsx
# --------------------------------------------------------------------------

_CELL_REF = re.compile(r"^([A-Z]+)([0-9]+)$")


def _col_index(letters: str) -> int:
    """'A' -> 1, 'AB' -> 28 (1-based, like spreadsheet column numbers)."""
    n = 0
    for ch in letters:
        n = n * 26 + (ord(ch) - 64)
    return n


def _col_letter(idx: int) -> str:
    out = ""
    while idx > 0:
        idx, r = divmod(idx - 1, 26)
        out = chr(65 + r) + out
    return out


def _text_of(elem) -> str:
    """Concatenated text of every descendant ``t`` element (shared-string
    items and inline strings may split one value across rich-text runs)."""
    return "".join(t.text or "" for t in elem.iter() if _local(t.tag) == "t")


def _parse_shared_strings(zf: zipfile.ZipFile) -> list[str]:
    try:
        data = zf.read("xl/sharedStrings.xml")
    except KeyError:
        return []
    root = ET.fromstring(data)
    return [_text_of(si) for si in root if _local(si.tag) == "si"]


def _cell_value(c, sst: list[str]):
    """Typed cell value with openpyxl's result types: shared/inline
    strings -> str, 'b' -> bool, numbers -> int when integral else float,
    empty -> None.  (Date *formatting* is a style concern openpyxl
    resolves via number formats; raw serial numbers pass through here.)"""
    t = c.get("t", "n")
    v = None
    for child in c:
        lc = _local(child.tag)
        if lc == "v":
            v = child.text
        elif lc == "is":  # inline string
            return _text_of(child)
    if v is None:
        return None
    if t == "s":
        return sst[int(v)]
    if t == "b":
        return v.strip() == "1"
    if t in ("str", "e", "d"):  # formula string / error / ISO-8601 date
        return v
    try:
        return int(v)
    except ValueError:
        return float(v)


def _workbook_sheets(zf: zipfile.ZipFile) -> tuple[list[tuple[str, str]], int]:
    """[(sheet name, archive path of its worksheet XML)] in workbook order,
    resolved through the workbook relationships part, and the index of
    the saved active tab (``workbookView/@activeTab``, openpyxl's
    ``wb.active``; 0 when absent or out of range)."""
    rels = {}
    try:
        root = ET.fromstring(zf.read("xl/_rels/workbook.xml.rels"))
        for rel in root:
            target = rel.get("Target", "")
            if target.startswith("/"):
                target = target.lstrip("/")
            else:
                target = "xl/" + target
            rels[rel.get("Id")] = target.replace("xl/./", "xl/")
    except KeyError:
        pass
    sheets = []
    active = None
    wb = ET.fromstring(zf.read("xl/workbook.xml"))
    rid_attr = ("{http://schemas.openxmlformats.org/officeDocument/2006/"
                "relationships}id")
    for elem in wb.iter():
        tag = _local(elem.tag)
        if tag == "sheet":
            name = elem.get("name", f"Sheet{len(sheets) + 1}")
            path = rels.get(elem.get(rid_attr),
                            f"xl/worksheets/sheet{len(sheets) + 1}.xml")
            sheets.append((name, path))
        elif tag == "workbookView" and active is None:
            active = elem.get("activeTab", "0")
    active = int(active) if active and active.isdigit() else 0
    return sheets, active if active < len(sheets) else 0


def _sheet_grid(zf: zipfile.ZipFile, path: str, sst: list[str]) -> list[list]:
    """Dense row-major grid (None-padded) of the worksheet's used range,
    the shape openpyxl exposes via ``sheet[row]`` / ``sheet[column]``."""
    root = ET.fromstring(zf.read(path))
    cells: dict[tuple[int, int], object] = {}
    max_r = max_c = 0
    row_num = 0
    for row in root.iter():
        if _local(row.tag) != "row":
            continue
        row_num = int(row.get("r", row_num + 1))
        col_num = 0
        for c in row:
            if _local(c.tag) != "c":
                continue
            ref = c.get("r")
            if ref:
                m = _CELL_REF.match(ref)
                col_num = _col_index(m.group(1)) if m else col_num + 1
            else:
                col_num += 1
            cells[(row_num, col_num)] = _cell_value(c, sst)
            max_r = max(max_r, row_num)
            max_c = max(max_c, col_num)
    return [[cells.get((r, c)) for c in range(1, max_c + 1)]
            for r in range(1, max_r + 1)]


def xlsx_to_string(
    filename: str,
    orientation: str = "col",
    col_order: list[str] | None = None,
    doc_per_sheet: bool = False,
) -> list[str]:
    """Reference ``xlsx_to_string`` (parsing_tools.py:99-153) without
    openpyxl.  ``col_order`` selects/orders header columns by name (the
    reference's filter is inert — see module docstring)."""
    with zipfile.ZipFile(filename) as zf:
        sst = _parse_shared_strings(zf)
        sheets, active = _workbook_sheets(zf)

        def process(grid: list[list]) -> str:
            header_row = grid[0] if grid else []
            if col_order:
                indexed = [(h, i) for i, h in enumerate(header_row)]
                picked = [(h, i) for name in col_order
                          for h, i in indexed if h == name]
            else:
                picked = list(enumerate(header_row))
                picked = [(h, i) for i, h in picked]
            result = []
            if orientation == "col":
                for header, i in picked:
                    column_values = [row[i] if i < len(row) else None
                                     for row in grid[1:]]
                    result.append(f"{header}: " + "\n".join(map(str, column_values)))
                    result.append("")  # empty line between columns
            else:  # row
                for row in grid[1:]:
                    row_dict = {h: (row[i] if i < len(row) else None)
                                for h, i in picked if h}
                    result.append(" | ".join(
                        f"{h}: {v}" for h, v in row_dict.items()))
            return "\n".join(result)

        if not doc_per_sheet:
            # only the active sheet's result is used: don't XML-parse and
            # grid-build every tab of a many-sheet workbook
            sheets = sheets[active:active + 1]
        grids = [process(_sheet_grid(zf, path, sst)) for _, path in sheets]
        if doc_per_sheet:
            return grids
        return [grids[0]] if grids else [""]


# --------------------------------------------------------------------------
# docx
# --------------------------------------------------------------------------

def _docx_paragraph_text(p) -> str:
    """python-docx ``Paragraph.text``: run text with w:tab -> \\t and
    w:br / w:cr -> \\n, in document order."""
    parts = []
    for elem in p.iter():
        lt = _local(elem.tag)
        if lt == "t":
            parts.append(elem.text or "")
        elif lt == "tab":
            parts.append("\t")
        elif lt in ("br", "cr"):
            parts.append("\n")
    return "".join(parts)


def docx_to_string(filename: str) -> list[str]:
    """Reference ``docx_to_string`` (parsing_tools.py:173-185): one doc,
    newline-joined body paragraphs."""
    with zipfile.ZipFile(filename) as zf:
        root = ET.fromstring(zf.read("word/document.xml"))
    body = next((e for e in root if _local(e.tag) == "body"), root)
    # python-docx Document.paragraphs = the body's direct w:p children
    # (table/nested paragraphs are not included)
    return ["\n".join(_docx_paragraph_text(p) for p in body
                      if _local(p.tag) == "p")]


# --------------------------------------------------------------------------
# pptx
# --------------------------------------------------------------------------

def _pptx_slide_paths(zf: zipfile.ZipFile) -> list[str]:
    """Slide archive paths in presentation order (sldIdLst r:id ->
    presentation rels), falling back to numeric order."""
    rid_attr = ("{http://schemas.openxmlformats.org/officeDocument/2006/"
                "relationships}id")
    try:
        rels = {}
        root = ET.fromstring(zf.read("ppt/_rels/presentation.xml.rels"))
        for rel in root:
            target = rel.get("Target", "")
            rels[rel.get("Id")] = ("ppt/" + target).replace("ppt/./", "ppt/") \
                if not target.startswith("/") else target.lstrip("/")
        pres = ET.fromstring(zf.read("ppt/presentation.xml"))
        paths = [rels[e.get(rid_attr)] for e in pres.iter()
                 if _local(e.tag) == "sldId" and e.get(rid_attr) in rels]
        if paths:
            return paths
    except KeyError:
        pass
    slide_re = re.compile(r"^ppt/slides/slide(\d+)\.xml$")
    numbered = [(int(m.group(1)), n) for n in zf.namelist()
                if (m := slide_re.match(n))]
    return [n for _, n in sorted(numbered)]


def _shape_text(sp) -> str:
    """python-pptx ``Shape.text``: paragraphs of the shape's text body
    joined by \\n; within a paragraph, a:t text with a:br -> \\n
    (vertical tab in python-pptx, rendered here as newline)."""
    tx_body = next((e for e in sp.iter() if _local(e.tag) == "txBody"), None)
    if tx_body is None:
        return ""
    paras = []
    for p in tx_body:
        if _local(p.tag) != "p":
            continue
        parts = []
        for elem in p.iter():
            lt = _local(elem.tag)
            if lt == "t":
                parts.append(elem.text or "")
            elif lt == "br":
                parts.append("\n")
        paras.append("".join(parts))
    return "\n".join(paras)


def pptx_to_string(filename: str, doc_per_slide: bool = False) -> list[str]:
    """Reference ``pptx_to_string`` (parsing_tools.py:188-223): text of
    every top-level shape with a text frame, per slide; one doc overall
    or one per slide."""
    result: list[str] = []
    with zipfile.ZipFile(filename) as zf:
        for path in _pptx_slide_paths(zf):
            root = ET.fromstring(zf.read(path))
            sp_tree = next((e for e in root.iter()
                            if _local(e.tag) == "spTree"), None)
            slide_content = []
            if sp_tree is not None:
                for shape in sp_tree:
                    # mirror `hasattr(shape, "text")`: sp (incl. title and
                    # body placeholders) has a txBody; pics/groups/frames
                    # don't expose .text in python-pptx
                    if _local(shape.tag) == "sp":
                        slide_content.append(_shape_text(shape))
            if doc_per_slide:
                result.append("\n".join(slide_content))
            else:
                result.extend(slide_content)
    if not doc_per_slide:
        result = ["\n".join(result)]
    return result
