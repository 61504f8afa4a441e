import random
import re

import pyarrow as pa

from docetl_ray.html_text import extract_text_batch, extract_text_bytes
from docetl_ray import synth


def test_basic_extraction():
    html = b"<html><head><title>T1</title></head><body><p>hello  world</p></body></html>"
    assert extract_text_bytes(html) == "T1\nhello world"


def test_script_style_comments_dropped():
    html = (
        b"<html><body><script>var x = '<p>no</p>';</script>"
        b"<style>p { color: red }</style><!-- hidden --><p>keep</p></body></html>"
    )
    assert extract_text_bytes(html) == "keep"


def test_entities_pinned_order():
    assert extract_text_bytes(b"<p>a &amp; b &lt;c&gt; &quot;d&quot; &nbsp;e</p>") == 'a & b <c> "d" e'
    # &amp; decoded last: &amp;lt; -> &lt; literally, not <
    assert extract_text_bytes(b"<p>&amp;lt;</p>") == "&lt;"


def test_null_and_empty():
    assert extract_text_bytes(None) == ""
    assert extract_text_bytes(b"") == ""
    assert extract_text_bytes(b"<p></p><div>  </div>") == ""


def test_batch_fn_matches_scalar():
    t = synth.pages_table(0, 50)
    redone = extract_text_batch(t.drop_columns(["text"]))
    assert redone["text"].to_pylist() == t["text"].to_pylist()


def test_deterministic_golden_column():
    # the synth text column IS the extraction output (byte-identity oracle)
    t = synth.pages_table(100, 20)
    for h, x in zip(t["html"].to_pylist(), t["text"].to_pylist()):
        assert extract_text_bytes(h) == x


def test_batch_replaces_existing_text_col():
    t = pa.table({"html": [b"<p>x</p>"], "text": ["stale"]})
    out = extract_text_batch(t)
    assert out["text"].to_pylist() == ["x"]


# -- differential test of the kernel -----------------------------------------
# ``replay_oracle`` and ``synth.pages_table``'s golden ``text`` column call
# ``extract_text_bytes`` themselves, so a drift in the kernel would move the
# engine and its oracles together.  ``_pinned_extract`` is a frozen copy of
# the straightforward per-line-regex implementation of the pinned algorithm
# (module docstring, steps 1-6); the kernel must match it byte for byte.

_P_DROP_BLOCKS = re.compile(rb"(?is)<(script|style)\b.*?</\1\s*>|<!--.*?-->")
_P_BLOCK_TAGS = re.compile(
    rb"(?is)</?(p|div|br|li|ul|ol|tr|td|th|table|h[1-6]|title|head|body|html|"
    rb"section|article|header|footer|nav|blockquote|pre|hr|form)\b[^>]*>"
)
_P_ANY_TAG = re.compile(rb"(?s)<[^>]*>")
_P_ENTITIES = [
    (b"&lt;", b"<"),
    (b"&gt;", b">"),
    (b"&quot;", b'"'),
    (b"&#39;", b"'"),
    (b"&apos;", b"'"),
    (b"&nbsp;", b" "),
    (b"&amp;", b"&"),
]
_P_WS_RUN = re.compile(r"[ \t\r\f\v]+")


def _pinned_extract(html):
    if html is None:
        return ""
    b = _P_DROP_BLOCKS.sub(b"", html)
    b = _P_BLOCK_TAGS.sub(b"\n", b)
    b = _P_ANY_TAG.sub(b"", b)
    for ent, rep in _P_ENTITIES:
        b = b.replace(ent, rep)
    s = b.decode("utf-8", errors="replace")
    lines = []
    for line in s.split("\n"):
        line = _P_WS_RUN.sub(" ", line).strip()
        if line:
            lines.append(line)
    return "\n".join(lines)


_UNICODE_SPACE = ["\xa0", "\x85", "\u2028", "\u2029", "\u3000", "\u2009",
                  "\x1c", "\x1d", "\x1e", "\x1f"]
_ATOMS = (
    # words, including multi-byte ones
    [b"a", b"hello", b"x1", "ünï".encode(), "日本".encode(),
     "\U0001f600".encode()]
    # ASCII whitespace and control bytes
    + [b" ", b"  ", b"   ", b"\t", b"\n", b"\n\n", b"\r", b"\r\n", b"\f",
       b"\v", b"\x00", b" \t \v\f\r "]
    # Unicode whitespace that str.isspace() accepts but the run regex skips
    + [c.encode() for c in _UNICODE_SPACE]
    # truncated and invalid UTF-8
    + [b"\xc2", b"\xa0", b"\xe2\x80", b"\xe2", b"\xf0\x9f\x98", b"\xff",
       b"\xfe", b"\xed\xa0\x80", b"\xc0\xaf", b"\x80\x80", b"\xe3\x80"]
    # tags: block, inline, broken, and the dropped blocks (unterminated and
    # interleaved when concatenated at random)
    + [b"<p>", b"</p>", b"<br/>", b"<div class='x y'>", b"</DIV>", b"<span>",
       b"</span>", b"<h3 id=1>", b"<td>", b"<pre>", b"<", b">", b"<b", b"/>",
       b"<script>", b"</script>", b"<SCRIPT type=x>", b"</script >",
       b"<scriptx>", b"<style>", b"</style>", b"</STYLE\n>", b"<!--", b"-->",
       b"<!-- c -->", b"<p\n>"]
    # every entity, its double-encoded forms, and partial ones
    + [e for e, _ in _P_ENTITIES]
    + [b"&amp;lt;", b"&amp;amp;", b"&amp;nbsp;", b"&", b"&nbsp", b"&l", b"t;",
       b"&#39", b"&&lt;;"]
)


def _soup_cases(rng: random.Random, n: int):
    for _ in range(n):
        k = rng.randint(0, 40)
        yield b"".join(rng.choice(_ATOMS) for _ in range(k))


def _random_bytes_cases(rng: random.Random, n: int):
    # a byte alphabet biased toward the kernel's special bytes
    biased = b" \t\n\r\f\v<>&;/!-ps\xc2\xa0\xe2\x80\x85"
    for _ in range(n):
        k = rng.randint(0, 64)
        if rng.random() < 0.5:
            yield bytes(rng.randrange(256) for _ in range(k))
        else:
            yield bytes(rng.choice(biased) for _ in range(k))


def test_kernel_matches_pinned_atom_soup():
    rng = random.Random(20261017)
    for html in _soup_cases(rng, 100_000):
        assert extract_text_bytes(html) == _pinned_extract(html), html


def test_kernel_matches_pinned_random_bytes():
    rng = random.Random(7)
    for html in _random_bytes_cases(rng, 20_000):
        assert extract_text_bytes(html) == _pinned_extract(html), html


def test_kernel_matches_pinned_synth_events():
    html = synth.events_table(0, 3000)["html"].to_pylist()
    assert any(h is None for h in html)  # tombstones carry null html
    for h in html:
        assert extract_text_bytes(h) == _pinned_extract(h)
    t = pa.table({"html": pa.array(html, type=pa.binary())})
    assert extract_text_batch(t)["text"].to_pylist() == [
        _pinned_extract(h) for h in html]
