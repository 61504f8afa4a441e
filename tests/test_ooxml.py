"""Stdlib OOXML parsers (docetl_ray/ooxml.py) vs the reference's
openpyxl / python-docx / python-pptx extractors
(reference docetl/parsing_tools.py:99-223).  Fixtures are minimal valid
OOXML archives built with zipfile — the codec libraries don't exist in
this environment, which is exactly why the parsers are stdlib."""

import zipfile

import pytest

from docetl_ray.ooxml import docx_to_string, pptx_to_string, xlsx_to_string

NS_R = "http://schemas.openxmlformats.org/officeDocument/2006/relationships"


# -- fixtures ---------------------------------------------------------------

def _write_xlsx(path, *, second_sheet=False, active_tab=None):
    """Sheet1: headers (name, score, active) + two data rows with a
    shared string, inline string, int, float, bool and an EMPTY cell.
    Optional Sheet2 for doc_per_sheet; ``active_tab`` writes a
    ``workbookView activeTab`` (the tab saved as active)."""
    sst = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<sst xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main" count="4" uniqueCount="4">
<si><t>name</t></si><si><t>score</t></si><si><t>active</t></si>
<si><r><t>al</t></r><r><t>ice</t></r></si></sst>"""
    sheet1 = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData>
<row r="1"><c r="A1" t="s"><v>0</v></c><c r="B1" t="s"><v>1</v></c><c r="C1" t="s"><v>2</v></c></row>
<row r="2"><c r="A2" t="s"><v>3</v></c><c r="B2"><v>12</v></c><c r="C2" t="b"><v>1</v></c></row>
<row r="3"><c r="A3" t="inlineStr"><is><t>bob</t></is></c><c r="B3"><v>3.5</v></c></row>
</sheetData></worksheet>"""
    sheet2 = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData>
<row r="1"><c r="A1" t="inlineStr"><is><t>k</t></is></c></row>
<row r="2"><c r="A2"><v>7</v></c></row>
</sheetData></worksheet>"""
    sheets_xml = '<sheet name="Data" sheetId="1" r:id="rId1"/>'
    rels = ('<Relationship Id="rId1" Type="x" Target="worksheets/sheet1.xml"/>')
    if second_sheet:
        sheets_xml += '<sheet name="Extra" sheetId="2" r:id="rId2"/>'
        rels += '<Relationship Id="rId2" Type="x" Target="worksheets/sheet2.xml"/>'
    views = ("" if active_tab is None else
             f'<bookViews><workbookView activeTab="{active_tab}"/></bookViews>')
    workbook = f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"
 xmlns:r="{NS_R}">{views}<sheets>{sheets_xml}</sheets></workbook>"""
    wb_rels = f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
{rels}</Relationships>"""
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("xl/workbook.xml", workbook)
        zf.writestr("xl/_rels/workbook.xml.rels", wb_rels)
        zf.writestr("xl/sharedStrings.xml", sst)
        zf.writestr("xl/worksheets/sheet1.xml", sheet1)
        if second_sheet:
            zf.writestr("xl/worksheets/sheet2.xml", sheet2)
    return str(path)


def _write_docx(path):
    doc = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">
<w:body>
<w:p><w:r><w:t>Hello </w:t></w:r><w:r><w:t>world</w:t></w:r></w:p>
<w:p><w:r><w:t>a</w:t><w:tab/><w:t>b</w:t><w:br/><w:t>c</w:t></w:r></w:p>
<w:p/>
<w:p><w:r><w:t xml:space="preserve">last</w:t></w:r></w:p>
</w:body></w:document>"""
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("word/document.xml", doc)
    return str(path)


def _write_pptx(path):
    def slide(*shape_texts):
        shapes = "".join(
            f"<p:sp><p:txBody>{paras}</p:txBody></p:sp>"
            for paras in shape_texts)
        return f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<p:sld xmlns:p="http://schemas.openxmlformats.org/presentationml/2006/main"
 xmlns:a="http://schemas.openxmlformats.org/drawingml/2006/main">
<p:cSld><p:spTree>{shapes}
<p:pic><p:txBodyFake/></p:pic>
</p:spTree></p:cSld></p:sld>"""

    s1 = slide("<a:p><a:r><a:t>Title</a:t></a:r></a:p>",
               "<a:p><a:r><a:t>line1</a:t></a:r></a:p>"
               "<a:p><a:r><a:t>line2</a:t></a:r></a:p>")
    s2 = slide("<a:p><a:r><a:t>Second</a:t></a:r><a:br/><a:r><a:t>slide</a:t></a:r></a:p>")
    pres = f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<p:presentation xmlns:p="http://schemas.openxmlformats.org/presentationml/2006/main"
 xmlns:r="{NS_R}">
<p:sldIdLst><p:sldId id="257" r:id="rId2"/><p:sldId id="256" r:id="rId1"/></p:sldIdLst>
</p:presentation>"""
    rels = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="x" Target="slides/slide1.xml"/>
<Relationship Id="rId2" Type="x" Target="slides/slide2.xml"/>
</Relationships>"""
    with zipfile.ZipFile(path, "w") as zf:
        zf.writestr("ppt/presentation.xml", pres)
        zf.writestr("ppt/_rels/presentation.xml.rels", rels)
        zf.writestr("ppt/slides/slide1.xml", s1)
        zf.writestr("ppt/slides/slide2.xml", s2)
    return str(path)


# -- xlsx -------------------------------------------------------------------

def test_xlsx_col_orientation(tmp_path):
    f = _write_xlsx(tmp_path / "t.xlsx")
    [doc] = xlsx_to_string(f)
    # reference shape: "{header}: v\nv" blocks, blank line between columns,
    # str() over raw values — empty cell renders as "None", bool as "True"
    assert doc == (
        "name: alice\nbob\n\n"
        "score: 12\n3.5\n\n"
        "active: True\nNone\n"
    )


def test_xlsx_row_orientation(tmp_path):
    f = _write_xlsx(tmp_path / "t.xlsx")
    [doc] = xlsx_to_string(f, orientation="row")
    assert doc == (
        "name: alice | score: 12 | active: True\n"
        "name: bob | score: 3.5 | active: None"
    )


def test_xlsx_col_order_selects_and_orders(tmp_path):
    f = _write_xlsx(tmp_path / "t.xlsx")
    [doc] = xlsx_to_string(f, orientation="row",
                           col_order=["score", "name", "missing"])
    assert doc == (
        "score: 12 | name: alice\n"
        "score: 3.5 | name: bob"
    )


def test_xlsx_doc_per_sheet(tmp_path):
    f = _write_xlsx(tmp_path / "t.xlsx", second_sheet=True)
    docs = xlsx_to_string(f, doc_per_sheet=True)
    assert len(docs) == 2
    assert docs[0].startswith("name: alice")
    assert docs[1] == "k: 7\n"
    # default = active (first) sheet only
    assert xlsx_to_string(f) == [docs[0]]


def test_xlsx_single_doc_is_the_saved_active_tab(tmp_path, monkeypatch):
    """doc_per_sheet=False returns the sheet ``workbookView/@activeTab``
    names (openpyxl's ``wb.active``), parsing only that one."""
    import docetl_ray.ooxml as ox

    f = _write_xlsx(tmp_path / "t.xlsx", second_sheet=True, active_tab="1")
    docs = xlsx_to_string(f, doc_per_sheet=True)
    seen = []
    orig = ox._sheet_grid

    def spy(zf, path, sst):
        seen.append(path)
        return orig(zf, path, sst)

    monkeypatch.setattr(ox, "_sheet_grid", spy)
    assert xlsx_to_string(f) == [docs[1]] == ["k: 7\n"]
    assert seen == ["xl/worksheets/sheet2.xml"]
    for tab in ("0", "7"):  # explicit first tab; out of range -> first
        f = _write_xlsx(tmp_path / f"t{tab}.xlsx", second_sheet=True, active_tab=tab)
        assert xlsx_to_string(f) == [docs[0]]


# -- docx -------------------------------------------------------------------

def test_docx_paragraphs(tmp_path):
    f = _write_docx(tmp_path / "t.docx")
    [doc] = docx_to_string(f)
    assert doc == "Hello world\na\tb\nc\n\nlast"


# -- pptx -------------------------------------------------------------------

def test_pptx_single_doc_respects_slide_order(tmp_path):
    f = _write_pptx(tmp_path / "t.pptx")
    # sldIdLst lists slide2 (rId2) first: presentation order wins
    [doc] = pptx_to_string(f)
    assert doc == "Second\nslide\nTitle\nline1\nline2"


def test_pptx_doc_per_slide(tmp_path):
    f = _write_pptx(tmp_path / "t.pptx")
    docs = pptx_to_string(f, doc_per_slide=True)
    assert docs == ["Second\nslide", "Title\nline1\nline2"]


# -- registry + fan-out stage ----------------------------------------------

def test_parsers_registered_for_real():
    from docetl_ray.sources import PARSERS, get_parser

    for name in ("xlsx_to_string", "docx_to_string", "pptx_to_string"):
        fn = get_parser(name)
        assert fn is PARSERS[name]
        # real implementations, not NotImplementedError stubs
        assert fn.__module__ == "docetl_ray.ooxml"


def test_parse_files_fanout_over_docx(tmp_path, ray_session):
    import ray.data as rd

    from docetl_ray.sources import parse_files

    paths = [_write_docx(tmp_path / f"d{i}.docx") for i in range(3)]
    ds = rd.from_items([{"path": p, "tag": i} for i, p in enumerate(paths)])
    out = parse_files(ds, path_col="path", parser="docx_to_string",
                      output_col="content").take_all()
    assert len(out) == 3
    assert all(r["content"] == "Hello world\na\tb\nc\n\nlast" for r in out)
    assert sorted(r["tag"] for r in out) == [0, 1, 2]


def test_stubbed_parsers_still_raise():
    from docetl_ray.sources import get_parser

    with pytest.raises(NotImplementedError):
        get_parser("whisper_speech_to_text")("/tmp/nope.wav")


def test_xlsx_iso_date_cells(tmp_path):
    """t="d" ISO-8601 date cells are valid ECMA-376 — they must parse as
    their literal string, not crash the numeric fallthrough."""
    sheet = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<worksheet xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main">
<sheetData>
<row r="1"><c r="A1" t="inlineStr"><is><t>when</t></is></c></row>
<row r="2"><c r="A2" t="d"><v>2024-01-15T00:00:00</v></c></row>
</sheetData></worksheet>"""
    workbook = f"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<workbook xmlns="http://schemas.openxmlformats.org/spreadsheetml/2006/main"
 xmlns:r="{NS_R}"><sheets><sheet name="D" sheetId="1" r:id="rId1"/></sheets></workbook>"""
    wb_rels = """<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="x" Target="worksheets/sheet1.xml"/></Relationships>"""
    p = tmp_path / "dates.xlsx"
    with zipfile.ZipFile(p, "w") as zf:
        zf.writestr("xl/workbook.xml", workbook)
        zf.writestr("xl/_rels/workbook.xml.rels", wb_rels)
        zf.writestr("xl/worksheets/sheet1.xml", sheet)
    (doc,) = xlsx_to_string(str(p))
    assert "2024-01-15T00:00:00" in doc


def test_xlsx_first_sheet_only_parsed_when_single_doc(tmp_path, monkeypatch):
    """doc_per_sheet=False must not XML-parse every tab of a many-sheet
    workbook when only the first sheet's text is returned."""
    import docetl_ray.ooxml as ox

    p = _write_xlsx(tmp_path / "two.xlsx", second_sheet=True)
    seen = []
    orig = ox._sheet_grid

    def spy(zf, path, sst):
        seen.append(path)
        return orig(zf, path, sst)

    monkeypatch.setattr(ox, "_sheet_grid", spy)
    (doc,) = xlsx_to_string(p)
    assert "name" in doc
    assert seen == ["xl/worksheets/sheet1.xml"]
    seen.clear()
    docs = xlsx_to_string(p, doc_per_sheet=True)
    assert len(docs) == 2 and len(seen) == 2
