"""Only the kernel reads the layout of a monomial key, and inside it four
functions decode a key's fields.

Outside `_pykernel.py` a key is opaque.  A packed key is stored, hashed,
compared, added to another key of its frame (which multiplies their
monomials), multiplied by an int (a power) and handed back to the kernel;
``frame.weight[v]`` is the key of v^(1/scale), and the frame's methods
(`Frame.pack`, `unpack`, `split`, `image`, `map`, `within`, `floor_key`,
...) are the only way into its fields.  A `Monomial` holds a packed key
too, with its frame and reach: `Frame.of` and `Frame.pack` encode
``(var, num, den)`` items into a key, and `Frame.unpack` decodes one.
The pattern below catches the idioms that read or build a key directly:
unpacking a key as ``(var, num, den)`` triples, tuple literals of
triples, the empty tuple as a literal, shifts by a frame's field
positions, masks of its fields, and reads of a frame's private bias,
field table, mask, half field or degree shift.

Inside `_pykernel.py` a field is decoded, a key shifted down by a field's
position and masked to the field, in four functions only: `Frame.column`,
the one reader of a variable's exponents over many keys, which `span`,
`bounds`, `split`, `outside`, `least` and the packed route go through, and
the per-key loops of `unpack`, `image` and `map`, where a call per key
would cost more than the loop.
"""

import ast
import re
from pathlib import Path

import qpknot

SRC = Path(qpknot.__file__).parent

READERS = {"column", "unpack", "image", "map"}

LAYOUT = re.compile(
    r'for \w+, \w+, \w+ in [\w.]*key\b|\(\("|\{\(\):|\(\(\)\)|, \(\),|else \(\)'
    r"|>> ?(frame\.)?_?shift|& ?(frame\.)?_?mask\b|\.(_offset|_?bias|_at|_mask|_half|_shift)\b"
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
        "floor = min(rem) >> frame._shift",
        "low = min(rem) >> shift",
        "e = (key >> s & mask) - half",
        "rem = {frame._bias + k: c for k, c in num_t.items()}",
        "lo = key + frame._bias >> frame._at['t']",
        "half = frame._half",
        "return frame.unpack(key + frame._offset)",
    ):
        assert LAYOUT.search(line), line
    for line in (
        "for v, n, d in frame.unpack(key):",
        'residue[rest - k * scale // 2 * frame.weight["t"]] = r',
        "return LaurentPoly._raw(frame, {key: int(coeff)} if coeff else {}, reach)",
        "for e, rest, coeff in frame.split(p._t, \"t\"):",
        "out[base + j * z_unit] = g",
        "inside, low = frame.within(box), frame.floor_key(floor)",
        "rm = lt // 2",
        "k >>= 1",
        "return LaurentPoly._raw(*frame.least(root), -(-p._r // 2))",
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


def _decoders(source):
    """The functions of ``source`` that decode a field: an ``&`` with a
    right shift for an operand, ``key >> s & mask`` however it is spelled,
    in the innermost function that holds it."""
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            operands = (node.left, node.right)
            if any(isinstance(x, ast.BinOp) and isinstance(x.op, ast.RShift) for x in operands):
                found.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_four_functions_decode_a_keys_fields():
    # the check fires on each spelling of the idiom and not on the
    # kernel's other shifts and masks
    for line in ("e = (key >> s & mask) - half", "mask & (k >> s)", "(k + b) >> s & self._mask"):
        assert _decoders(f"def f():\n    {line}\n") == {"f"}, line
    for line in ("(key + self._bias) >> self._shift", "(key - low + top) & top == top", "k >>= 1"):
        assert _decoders(f"def f():\n    {line}\n") == set(), line

    assert _decoders((SRC / "_pykernel.py").read_text()) == READERS
