"""Term-arithmetic entry points used by the Laurent ring.

The nine names are bound straight from `_pykernel` and kept as a separate
module on purpose: `perfbench/tracer.py` fetches them from `qpknot._kernel`
with `getattr` and leaves `qpknot._pykernel` untraced, so merging the two
modules would count kernel-internal calls in the traced run and dropping a
name would crash it.  That is why `poly_accum_term_mul` stays although
nothing in the package calls it any more: the tracer fetches it by name.
"""

from qpknot._pykernel import (
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
