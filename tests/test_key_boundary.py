"""Only the kernel reads the layout of a monomial key.

Outside `_pykernel.py` a key is opaque: code stores it, hashes it, uses it
as a dict key and hands it back to the kernel, whose helpers (`ONE`,
`mono_of`, `mono_items`, `mono_split`, `Frame.degree`) are the only way
into it.  The pattern below catches the idioms that read or build a key
directly: unpacking a key's triples, tuple literals of triples, the empty
key as a literal, shifts by a frame's field width, and reads of a frame's
field offset, which only `Frame.unpack`, `Frame.degree` and `Frame.outside`
add.
"""

import re
from pathlib import Path

import qpknot

SRC = Path(qpknot.__file__).parent

LAYOUT = re.compile(
    r'for \w+, \w+, \w+ in [\w.]*key\b|\(\("|\{\(\):|\(\(\)\)|, \(\),|else \(\)|>> ?(frame\.)?shift'
    r"|\.(_offset|bias)\b"
)


def test_only_the_kernel_reads_key_layouts():
    # the pattern fires on each idiom and not on the helpers
    for line in (
        "for v, n, d in key:",
        "for v, _, _ in self._key",
        'return (("t", doubled, 2),)',
        "terms = {(): 1}",
        "poly_accum_term_mul(out, t, (), -1)",
        "x if j else ()",
        "floor = min(rem) >> frame.shift << frame.shift",
        "low = min(rem) >> shift",
        "rem = {frame.bias + pack(m): c for m, c in num_t.items()}",
        "pack, bias, unpack = frame.pack, frame.bias, frame.unpack",
        "return frame.unpack(key + frame._offset)",
    ):
        assert LAYOUT.search(line), line
    for line in (
        "for v, n, d in _K.mono_items(key):",
        'residue[_K.mono_mul(rest, _K.mono_of([("t", -k, 2)]))] = r',
        "terms = {_K.ONE: 1}",
        "floor = degree(min(rem))",
        "rm = lt // 2",
        "return LaurentPoly._raw({frame.unpack(k): c for k, c in root.items()})",
    ):
        assert not LAYOUT.search(line), line

    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_pykernel.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if LAYOUT.search(line)
    ]
    assert hits == []
