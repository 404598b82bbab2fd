"""Term-arithmetic entry points used by the Laurent ring.

The names are bound straight from `_pykernel` and kept as a separate
module on purpose: `perfbench/tracer.py` fetches nine of them from
`qpknot._kernel` with `getattr` and leaves `qpknot._pykernel` untraced, so
merging the two modules would count kernel-internal calls in the traced
run and dropping one of the nine would crash it.

Every polynomial keeps its terms on the packed int keys of its `Frame`,
between operations as within them, and a `Monomial` holds the frame, key
and reach of one term; only text, JSON, CSV, LaTeX, hashes and a
monomial's exponents decode a key.  `poly_add`, `poly_term_mul` and
`poly_mul` are built on `poly_accum_term_mul`, the one summing loop,
inside `_pykernel`, so a traced run counts each ring call once, under the
name the ring called.  The ring calls `poly_accum_term_mul` itself for
subtraction (``a - b`` is ``a`` plus ``b`` times -1), for each step of the
leading-term reduction that `exact_div` and `exact_sqrt` share, for each
step of `qpnumbers.two_term_ladder` and for the merge in `from_az_form`;
those steps count under it.

Dense operands take the packed route instead: `poly_mul` multiplies them
as one big int each, and `exact_div` and `exact_sqrt` try `dense_div` and
`dense_sqrt` before their reduction, which runs only when those return
None.  The route runs inside `_pykernel` and the tracer does not wrap
`dense_div` or `dense_sqrt`, so a packed product counts once under
`poly_mul`, and a packed quotient or root counts under no kernel name: its
time is the self time of the `exact_div` or `exact_sqrt` span.

`mono_mul`, `mono_pow`, `mono_deg` and `mono_cmp` multiply, raise, measure
and compare packed monomials for `Monomial`; the ring's own arithmetic
never calls them.  `poly_term_mul` is called by the tests only.

Only the kernel reads the layout of a key; the rest of the package stores
keys, hashes them, adds keys of one frame and hands them back.  `Frame`,
untraced, is its way in: it encodes ``(var, num, den)`` items into keys,
decodes them, and joins, fits and maps frames.  Five of its methods read a
key's fields: `Frame.column`, which `span`, `bounds`, `split`, `outside`
and the packed route go through, and `unpack`, `image`, `map` and `least`.
"""

from qpknot._pykernel import (
    Frame,
    dense_div,
    dense_sqrt,
    mono_cmp,
    mono_deg,
    mono_mul,
    mono_pow,
    poly_accum_term_mul,
    poly_add,
    poly_mul,
    poly_neg,
    poly_term_mul,
)

BACKEND = "python"
