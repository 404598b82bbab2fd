"""Term-arithmetic entry points used by the Laurent ring.

The names are bound straight from `_pykernel` and kept as a separate
module on purpose: `perfbench/tracer.py` fetches nine of them from
`qpknot._kernel` with `getattr` and leaves `qpknot._pykernel` untraced, so
merging the two modules would count kernel-internal calls in the traced
run and dropping one of the nine would crash it.

Every polynomial keeps its terms on the packed int keys of its `Frame`,
between operations as within them; only `Monomial`, text, JSON, CSV and
LaTeX decode a key.  `poly_add`, `poly_term_mul` and `poly_mul` are built
on `poly_accum_term_mul`, the one summing loop, inside `_pykernel`, so a
traced run counts each ring call once, under the name the ring called.
The ring calls `poly_accum_term_mul` itself for subtraction (``a - b`` is
``a`` plus ``b`` times -1), for each step of the leading-term reduction
that `exact_div` and `exact_sqrt` share, for each step of
`qpnumbers.two_term_ladder` and for the merge in `from_az_form`; those
steps count under it.

`mono_mul` and `mono_pow` multiply and raise tuple monomials, the decoded
form `Monomial` holds; the ring's own arithmetic never calls them.
`mono_cmp` has no caller in the ring and stays only because the tracer
fetches it by name: it packs its two monomials in a frame of their own.
`poly_term_mul` is called by the tests only.

Only the kernel reads the layout of a key, a tuple of ``(var, num, den)``
triples or a packed `Frame` int; the rest of the package stores keys,
hashes them, adds keys of one frame and hands them back.  The untraced
helpers below are its way in: `ONE` (the tuple of 1), `mono_of` (the
tuple of ``(var, num, den)`` items), `mono_items` (those items of a
tuple), `mono_split` (one variable's exponent and the rest of a tuple) and
`Frame` (packing, decoding, joining and mapping keys).
"""

from qpknot._pykernel import (
    ONE,
    Frame,
    mono_cmp,
    mono_deg,
    mono_items,
    mono_mul,
    mono_of,
    mono_pow,
    mono_split,
    poly_accum_term_mul,
    poly_add,
    poly_mul,
    poly_neg,
    poly_term_mul,
)

BACKEND = "python"
