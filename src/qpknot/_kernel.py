"""Term-arithmetic entry points used by the Laurent ring.

The names are bound straight from `_pykernel` and kept as a separate
module on purpose: `perfbench/tracer.py` fetches nine of them from
`qpknot._kernel` with `getattr` and leaves `qpknot._pykernel` untraced, so
merging the two modules would count kernel-internal calls in the traced
run and dropping one of the nine would crash it.

Two of the nine have no caller in the ring and stay only because the
tracer fetches them by name: `mono_cmp`, since the ring orders monomials
by the keys of an `Order` table (one integer frame per operation), and
`poly_term_mul`, since division and square roots update their remainder
in place with `poly_accum_term_mul`.  `Order` and `exp_scale` are not
traced; their time counts towards the calling operation.
"""

from qpknot._pykernel import (
    Order,
    exp_scale,
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
