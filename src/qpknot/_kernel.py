"""Term-arithmetic entry points used by the Laurent ring.

The names are bound straight from `_pykernel` and kept as a separate
module on purpose: `perfbench/tracer.py` fetches nine of them from
`qpknot._kernel` with `getattr` and leaves `qpknot._pykernel` untraced, so
merging the two modules would count kernel-internal calls in the traced
run and dropping one of the nine would crash it.

`poly_add` and `poly_term_mul` are built on `poly_accum_term_mul` inside
`_pykernel`, and `poly_mul` on `poly_term_mul` (a one-term operand) or
`packed_accum_term_mul` (any other), so a traced run counts each ring
call once, under the name the ring called.  The ring calls
`poly_accum_term_mul` itself for subtraction (``a - b`` is ``a`` plus
``b`` times -1) and for the merge in `from_az_form`.

Products, ordering, division, square roots and the two-term ladder run on
the packed int keys of a `Frame` (one per operation; a ladder's is sized
for its last index): `poly_mul` sums a product of two multi-term operands
on packed keys and decodes each product term once,
printing and `leading_term` sort and scan by `Frame.pack`,
`exact_div` and `exact_sqrt` share one leading-term reduction on packed
keys (a square root divides by 2 * root) that updates its remainder
through `packed_accum_term_mul`, and
`qpnumbers.two_term_ladder` steps on packed keys with one
`packed_accum_term_mul` per coefficient term, with no ring product, and
decodes only the entries its caller asks for.
`Frame`, `exp_scale`, `exponent_bounds` and `packed_accum_term_mul` are
not traced; their time counts towards the calling operation (for a ladder,
whichever caller asks for the next entry).

Only the kernel reads the layout of a monomial key, a tuple of
``(var, num, den)`` triples or a packed `Frame` int; the rest of the
package stores keys, hashes them and hands them back.  The untraced helpers
below are its way in: `ONE` (the key of 1), `mono_of` (the key of
``(var, num, den)`` items), `mono_items` (those items of a key),
`mono_split` (one variable's exponent and the rest of the key) and
`Frame.degree` (the degree of a packed key).

One of the nine has no caller in the ring and stays only because the
tracer fetches it by name: `mono_cmp`, which packs its two monomials in a
frame of their own.  `poly_term_mul` is reached through `poly_mul`.
"""

from qpknot._pykernel import (
    ONE,
    Frame,
    exp_scale,
    exponent_bounds,
    mono_cmp,
    mono_deg,
    mono_items,
    mono_mul,
    mono_of,
    mono_pow,
    mono_split,
    packed_accum_term_mul,
    poly_accum_term_mul,
    poly_add,
    poly_mul,
    poly_neg,
    poly_term_mul,
)

BACKEND = "python"
