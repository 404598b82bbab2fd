"""The mutation gate: each record breaks the package in one place, and the
tests named in the record must then fail.

    python3 tests/mutants.py [--seed N]

A record holds a file under ``src/``, an exact old text, the new text that
replaces it, and the pytest node ids that must fail.  The old text must occur
exactly once in the file, so a refactor that moves or rewrites the code shows
as a stale record, not as a silent pass; ``tests/test_mutants.py`` checks
every record this way in the ordinary suite.

The script first runs every named test on an unchanged copy, where each must
pass.  Then, one mutant at a time, it copies ``src/``, ``tests/`` and
``perfbench/`` (with ``README.md`` and ``pyproject.toml``) to a temporary
directory, applies the record there and runs the record's tests in that copy;
``tests/conftest.py`` puts the copy's ``src/`` first on ``sys.path``.  Both
runs select the ``mutants`` Hypothesis profile, which ``tests/conftest.py``
registers without the shrink phase: the first failing example kills a
mutant, and shrinking it would only cost time.  Each run passes a
``--hypothesis-seed``, and the gate makes every run twice, under ``SEED``
and ``SEED + 1``, or under N and N + 1 when ``--seed N`` names another
start.  The script prints both seeds first: a verdict follows from the commit and
the seed, and ``--seed N`` replays it.  A record should be killed by a
fixed case (a plain test, a parametrized case or an ``@example``), so that
the seed does not change its verdict; the script names every record whose
verdict differs between the two seeds.

A mutant is killed under a seed when every named test fails, when pytest
cannot collect them (a mutant that breaks the package's import; the
unchanged copy must still pass), or when the run exceeds ``TIMEOUT``
seconds (labelled so).  Every run tries every record.  The script prints
each mutant's verdict (one per seed when they differ) and seconds, then
how many were killed under both seeds out of the total, and exits 1
unless every mutant is killed under both.

pytest does not collect this file (its name does not start with ``test_``),
and the gate is not part of the ordinary suite: it takes minutes.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
_COPIED = ("src", "tests", "perfbench", "README.md", "pyproject.toml")
TIMEOUT = 300.0  # seconds per pytest run
SEED = 0  # the first Hypothesis seed of every record unless --seed says otherwise


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/qpknot
    old: str
    new: str
    tests: tuple[str, ...]  # node ids, each of which must fail


MUTANTS = [
    # -- the (a, z) conversions (skein.py) --
    Mutant(
        "residue-sign",  # (-1)^k flipped in to_az_form's symmetry test
        "skein.py",
        "        sign = -1 if parity else 1\n        for k in",
        "        sign = 1 if parity else -1\n        for k in",
        (
            "tests/test_skein.py::TestConversionOracle::test_knot_entries",
            "tests/test_skein.py::TestAZForm::test_trefoil",
        ),
    ),
    Mutant(
        "g-without-c0",  # g_j = 2 * (c(2) + c(4) + ...), c(0) left out
        "skein.py",
        "g = c0 + 2 * sum(half)",
        "g = 2 * sum(half)",
        (
            "tests/test_skein.py::TestConversionOracle::test_knot_entries",
            "tests/test_skein.py::TestAZForm::test_trefoil",
        ),
    ),
    Mutant(
        "horner-seed-sign",  # the new c(0) = -2 c(1) taken as 0 on odd-to-even steps
        "skein.py",
        "zip([-half[0]] + half, half + [0])",
        "zip([half[0]] + half, half + [0])",
        (
            "tests/test_skein.py::TestAZReference::test_from_az_matches_reference",
            "tests/test_verify.py::TestReports::test_all_pass_at_25",
        ),
    ),
    Mutant(
        "mirror-without-sign",  # c(-k) = c(k) on odd rows
        "skein.py",
        "row = [sign * c for c in reversed(half[1 - parity :])] + half",
        "row = [c for c in reversed(half[1 - parity :])] + half",
        (
            "tests/test_skein.py::TestAZReference::test_from_az_matches_reference",
            "tests/test_eval_oracle.py::TestAZConversions::test_from_az_then_to_az",
        ),
    ),
    # -- the knot series (skein.py) --
    Mutant(
        "knot-entry-sign",  # entry m = [m+1] + u*v*[m]
        "skein.py",
        "entries = {2 * m + 1: b + k2 * a for",
        "entries = {2 * m + 1: b - k2 * a for",
        (
            "tests/test_skein.py::TestKnotOracle::test_homfly",
            "tests/test_verify.py::TestReports::test_all_pass_at_25",
        ),
    ),
    Mutant(
        "knot-entry-off-by-one",  # the numbers start at [1], not [0]
        "skein.py",
        "qp_number(spec, n) for n in range(m_max + 2))",
        "qp_number(spec, n) for n in range(1, m_max + 3))",
        (
            "tests/test_skein.py::TestKnotSeries::test_unknot",
            "tests/test_skein.py::TestKnotOracle::test_homfly",
        ),
    ),
    # -- the two-term ladder (qpnumbers.py) --
    Mutant(
        "ladder-fixed-span",  # the frame fitted to 2^12 whatever the entries need
        "qpnumbers.py",
        ".fit(base + last * reach)",
        ".fit(1 << 12)",
        ("tests/test_qpnumbers.py::TestLadder::test_matches_ring_recurrence",),
    ),
    Mutant(
        "ladder-span-without-seeds",  # the reach bound drops B
        "qpnumbers.py",
        ".fit(base + last * reach)",
        ".fit(last * reach)",
        ("tests/test_qpnumbers.py::TestLadder::test_matches_ring_recurrence",),
    ),
    Mutant(
        "ladder-frame-for-half-the-walk",  # the one frame is fitted to last // 2
        "qpnumbers.py",
        ".fit(base + last * reach)",
        ".fit(base + last // 2 * reach)",
        ("tests/test_qpnumbers.py::TestLadder::test_matches_ring_recurrence",),
    ),
    Mutant(
        "ladder-frame-for-the-first-index",  # fitted to indices[0], not indices[-1]
        "qpnumbers.py",
        ".fit(base + last * reach)",
        ".fit(base + indices[0] * reach)",
        ("tests/test_qpnumbers.py::TestLadder::test_matches_ring_recurrence",),
    ),
    Mutant(
        "ladder-yields-the-other-entries",  # the yield filter inverted
        "qpnumbers.py",
        "        if k in indices:\n",
        "        if k not in indices:\n",
        (
            "tests/test_qpnumbers.py::TestLadder::test_matches_ring_recurrence",
            "tests/test_qpnumbers.py::TestLadder::test_ladder_hands_over_only_its_entry",
            "tests/test_verify.py::TestReports::test_knot_vs_link_decodes_only_odd_link_entries",
        ),
    ),
    # -- index doubling (qpnumbers.py) --
    Mutant(
        "doubling-without-factor-two",  # s_k = [k+1] - k1*[k] in every round but the last
        "qpnumbers.py",
        "s = 2 * b - k1 * a  # u^k + v^k",
        "s = b - k1 * a  # u^k + v^k",
        (
            "tests/test_qpnumbers.py::TestLadder::test_doubling_matches_closed_sum",
            "tests/test_qpnumbers.py::TestRoutes::test_recurrence_small_values",
        ),
    ),
    Mutant(
        "doubling-odd-sign",  # [2k+1] = [k+1]*s_k + (uv)^k in every round but the last
        "qpnumbers.py",
        "a, b, w = a * s, b * s - w, w * w",
        "a, b, w = a * s, b * s + w, w * w",
        (
            "tests/test_qpnumbers.py::TestLadder::test_doubling_matches_closed_sum",
            "tests/test_qpnumbers.py::TestRoutes::test_recurrence_small_values",
        ),
    ),
    Mutant(
        "doubling-skips-the-step-on-one",  # every digit read as 0
        "qpnumbers.py",
        '        if digit == "1":\n            a, b, w = b, k1 * b + k2 * a, -(w * k2)\n',
        "",
        (
            "tests/test_qpnumbers.py::TestLadder::test_doubling_matches_closed_sum",
            "tests/test_qpnumbers.py::TestRoutes::test_recurrence_small_values",
        ),
    ),
    Mutant(
        "doubling-from-the-low-digit",  # the digits of n read in reverse
        "qpnumbers.py",
        '*head, last = f"{n:b}"',
        '*head, last = reversed(f"{n:b}")',
        ("tests/test_qpnumbers.py::TestLadder::test_doubling_matches_closed_sum",),
    ),
    # -- the packed frame (_pykernel.py) --
    Mutant(
        "frame-16-bit-fields",  # fit never widens: every field 16 bits wide
        "_pykernel.py",
        "        return Frame(self.names, self.scale, need)\n",
        "        return self\n",
        ("tests/test_eval_oracle.py::TestSqrtFrame",),
    ),
    Mutant(
        "frame-degree-sign",  # descending degree in the key order
        "_pykernel.py",
        "self.weight = {v: (1 << s) + (1 << shift) for",
        "self.weight = {v: (1 << s) - (1 << shift) for",
        (
            "tests/test_kernel.py::TestOrder::test_degree_dominates",
            "tests/test_verify.py::TestReports::test_all_pass_at_25",
        ),
    ),
    Mutant(
        "unpack-without-offset",  # fields read without the bias, as unsigned
        "_pykernel.py",
        "        key += self._bias\n        scale, mask, half = self.scale, self._mask, self._half\n",
        "        scale, mask, half = self.scale, self._mask, self._half\n",
        (
            "tests/test_kernel.py::TestFrame::test_unpack_inverts_pack_and_sums_multiply",
            "tests/test_verify.py::TestReports::test_all_pass_at_25",
        ),
    ),
    Mutant(
        "degree-without-offset",  # the low fields borrow from the degree
        "_pykernel.py",
        "return (key + self._bias) >> self._shift",
        "return key >> self._shift",
        ("tests/test_kernel.py::TestFrame::test_degree_reads_the_top_field",),
    ),
    Mutant(
        "outside-without-offset",  # the key's fields read as unsigned
        "_pykernel.py",
        "zip(self.names, self.columns((key,)))",
        "zip(self.names, self.columns((key - self._bias,)))",
        (
            "tests/test_kernel.py::TestFrame::test_outside_names_first_variable_out_of_box",
            "tests/test_kernel.py::TestFrame::test_outside_reads_spans_below_zero",
        ),
    ),
    Mutant(
        "column-without-offset",  # the fields of many keys read as unsigned
        "_pykernel.py",
        "return [((k + bias) >> s & mask) - half for k in keys]",
        "return [(k >> s & mask) - half for k in keys]",
        (
            "tests/test_kernel.py::TestFrame::test_column_reads_each_variable",
            "tests/test_verify.py::TestReports::test_all_pass_at_25",
        ),
    ),
    Mutant(
        "column-reads-the-first-variable",  # the first variable's shift read for every variable
        "_pykernel.py",
        "        s = self._at.get(var)\n",
        "        s = self._at.get(self.names[0]) if var in self._at else None\n",
        (
            "tests/test_kernel.py::TestFrame::test_column_reads_each_variable",
            "tests/test_kernel.py::TestFrame::test_split_takes_one_variable_off_each_key",
            "tests/test_skein.py::TestAZForm::test_trefoil",
        ),
    ),
    Mutant(
        "split-rest-keeps-the-field",  # the rest of a key without `- e * unit`
        "_pykernel.py",
        "return [(e, k - e * unit, c) for e, k, c in",
        "return [(e, k, c) for e, k, c in",
        (
            "tests/test_kernel.py::TestFrame::test_split_takes_one_variable_off_each_key",
            "tests/test_skein.py::TestAZForm::test_trefoil",
        ),
    ),
    Mutant(
        "accum-without-product",  # the summing loop drops the term's monomial
        "_pykernel.py",
        "        k += key\n",
        "",
        (
            "tests/test_kernel.py::TestPyKernel::test_poly_accum_term_mul_matches_term_mul",
            "tests/test_eval_oracle.py::TestRingOperations::test_add_sub_mul",
        ),
    ),
    # -- products (_pykernel.py) --
    Mutant(
        "product-span-from-one-low",  # a product reaches only as far as one operand
        "laurent.py",
        "        reach = self._r + q._r\n",
        "        reach = max(self._r, q._r)\n",
        (
            "tests/test_eval_oracle.py::TestDivisionFrame::test_product_divides_back",
            "tests/test_qpnumbers.py::TestLadder::test_matches_ring_recurrence",
        ),
    ),
    Mutant(
        "product-scale-of-one-operand",  # a join keeps one frame's denominators
        "_pykernel.py",
        "scale = lcm(self.scale, other.scale)",
        "scale = self.scale",
        (
            "tests/test_eval_oracle.py::TestProductFrame::test_cross_terms_cancel",
            "tests/test_eval_oracle.py::TestProductFrame::test_variable_in_one_operand_only",
            "tests/test_packed_route.py::TestPackedOracle::test_products_and_quotients",
        ),
    ),
    Mutant(
        "frame-join-drops-names",  # a join keeps one frame's variables
        "_pykernel.py",
        "names = tuple(sorted(set(self.names).union(other.names)))",
        "names = self.names",
        (
            "tests/test_eval_oracle.py::TestCrossFrame::test_sum_minus_operand",
            "tests/test_eval_oracle.py::TestProductFrame::test_variable_in_one_operand_only",
        ),
    ),
    Mutant(
        "one-term-product-without-coefficient",  # a product by c*m taken as one by m
        "_pykernel.py",
        "        poly_accum_term_mul(out, t1, k, c)\n",
        "        poly_accum_term_mul(out, t1, k, 1)\n",
        (
            "tests/test_kernel.py::TestPyKernel::test_poly_mul_by_one_term",
            "tests/test_eval_oracle.py::TestRingOperations::test_add_sub_mul",
        ),
    ),
    Mutant(
        "degree-without-common-denominator",  # mono_deg reads units of 1/scale as whole ones
        "_pykernel.py",
        "return frame.degree(key), frame.scale",
        "return frame.degree(key), 1",
        (
            "tests/test_laurent.py::TestMonomial::test_degree",
            "tests/test_kernel.py::TestPyKernel::test_mono_deg_is_the_degree_over_the_scale",
        ),
    ),
    # -- the packed route (_pykernel.py) --
    Mutant(
        "packed-root-own-strides",  # the root read back on its own box's strides, not the square's
        "_pykernel.py",
        "    out = grid.unpack(r, s0 // 2, tops,",
        "    grid.strides = _Grid(g, [t + 1 for t in tops], grid.width).strides\n"
        "    out = grid.unpack(r, s0 // 2, tops,",
        (
            "tests/test_packed_route.py::TestPackedOracle::test_roots",
            "tests/test_packed_route.py::TestPackedOracle::test_knot_entries",
        ),
    ),
    Mutant(
        "packed-lows-of-the-other-operand",  # every operand placed from the first's lows
        "_pykernel.py",
        "        for terms, (cols, lows, _) in parts:\n",
        "        for terms, (cols, _, _) in parts:\n            lows = parts[0][1][1]\n",
        ("tests/test_packed_route.py::TestPackedOracle::test_products_and_quotients",),
    ),
    Mutant(
        "packed-newton-box-unchecked",  # a row read one digit past the last variable's top
        "_pykernel.py",
        "row = digits[i : max(i, (r + end - s0) // gap + 1)]",
        "row = digits[i : max(i, (r + end - s0) // gap + 2)]",
        ("tests/test_kernel.py::TestPyKernel::test_dense_div_refuses_a_digit_one_step_past_the_box",),
    ),
    Mutant(
        "packed-inner-top-unchecked",  # the box walk one row past an outer variable's top
        "_pykernel.py",
        "for js in product(*[range(t + 1) for t in tops[:-1]]):",
        "for js in product(*[range(t + 2) for t in tops[:-1]]):",
        ("tests/test_packed_route.py::TestPackedFailures::test_int_quotient_past_an_inner_top",),
    ),
    Mutant(
        "packed-digit-count-unchecked",  # digits outside the box's rows dropped, not refused
        "_pykernel.py",
        "        if len(out) != size - digits.count(0):\n            return None\n",
        "",
        (
            "tests/test_packed_route.py::TestPackedFailures::test_int_quotient_past_the_newton_box",
            "tests/test_packed_route.py::TestPackedFailures::test_int_quotient_past_an_inner_top",
        ),
    ),
    Mutant(
        "packed-route-extents-one-short",  # each extent of the largest box one step short
        "_pykernel.py",
        "extents = [(h - l) // gv + 1 for l, h, gv in zip(lows, highs, g)]",
        "extents = [(h - l) // gv for l, h, gv in zip(lows, highs, g)]",
        (
            "tests/test_packed_route.py::TestPackedOracle::test_knot_entries",
            "tests/test_packed_route.py::TestPackedOracle::test_products_and_quotients",
        ),
    ),
    Mutant(
        "packed-slot-a-byte-short",  # no byte for the sign when the bound fills its bytes
        "_pykernel.py",
        "need = bound.bit_length() // 8 + 1",
        "need = (bound.bit_length() + 7) // 8",
        ("tests/test_packed_route.py::TestPackedOracle::test_products_and_quotients",),
    ),
    Mutant(
        "packed-typecode-a-size-short",  # each slot read as an `array` item one size too small
        "_pykernel.py",
        '_CODES = dict(zip((1, 2, 4, 8), "bhiq"))',
        '_CODES = dict(zip((1, 2, 4, 8), "bbhi"))',
        ("tests/test_packed_route.py::TestPackedOracle::test_knot_entries",),
    ),
    Mutant(
        "packed-wide-digits-unsigned",  # a slot wider than 8 bytes read without its sign
        "_pykernel.py",
        '[int.from_bytes(data[i : i + w], "little", signed=True) for',
        '[int.from_bytes(data[i : i + w], "little") for',
        ("tests/test_packed_route.py::TestPackedOracle::test_slots_wider_than_eight_bytes",),
    ),
    Mutant(
        "packed-gap-of-one-operand",  # G from the last operand's slots only
        "_pykernel.py",
        "gap = gcd(gap, *[s - s0 for s in slots])",
        "gap = gcd(*[s - s0 for s in slots])",
        ("tests/test_packed_route.py::TestPackedOracle::test_products_and_quotients",),
    ),
    Mutant(
        "packed-row-first-digit-off-by-one",  # each row read from one digit past its first
        "_pykernel.py",
        "i = max(0, (r - s0 + gap - 1) // gap)",
        "i = max(0, (r - s0 + gap) // gap)",
        (
            "tests/test_packed_route.py::TestPackedOracle::test_knot_entries",
            "tests/test_packed_route.py::TestPackedOracle::test_products_and_quotients",
        ),
    ),
    Mutant(
        "packed-root-least-slot-unhalved",  # the root read back from the square's least slot
        "_pykernel.py",
        "out = grid.unpack(r, s0 // 2, tops,",
        "out = grid.unpack(r, s0, tops,",
        ("tests/test_packed_route.py::TestPackedOracle::test_roots",),
    ),
    Mutant(
        "packed-odd-least-slot-accepted",  # a square whose least slot is odd rooted all the same
        "_pykernel.py",
        "if p <= 0 or s0 % 2:",
        "if p <= 0:",
        ("tests/test_packed_route.py::TestPackedFailures::test_odd_least_slot",),
    ),
    Mutant(
        "packed-root-sign-unnormalised",  # the int root's sign kept, whatever its leading term's
        "_pykernel.py",
        "    if out[max(out)] < 0:\n        out = {k: -c for k, c in out.items()}\n",
        "",
        ("tests/test_packed_route.py::TestPackedOracle::test_roots",),
    ),
    # -- monomials on packed keys (_pykernel.py, qpnumbers.py) --
    Mutant(
        "monomial-product-unfitted",  # a product kept in the join, not fitted to r1 + r2
        "_pykernel.py",
        "frame = f1.join(f2).fit(r1 + r2)",
        "frame = f1.join(f2)",
        ("tests/test_eval_oracle.py::TestMonomialOracle::test_product",),
    ),
    Mutant(
        "monomial-power-unscaled",  # a power's unit counts left as they were, not times num
        "_pykernel.py",
        "{v: num * target.weight[v] for v in frame.names}",
        "{v: target.weight[v] for v in frame.names}",
        (
            "tests/test_eval_oracle.py::TestMonomialOracle::test_power_and_inverse",
            "tests/test_laurent.py::TestMonomial::test_mono_pow_inverts",
        ),
    ),
    Mutant(
        "least-skips-the-first-variable",  # the least scale read off every variable but the first
        "_pykernel.py",
        "        for v in self.names:\n            if g == 1:\n",
        "        for v in self.names[1:]:\n            if g == 1:\n",
        ("tests/test_kernel.py::TestFrame::test_least_divides_the_scale_by_the_exponents_gcd",),
    ),
    Mutant(
        "monomial-power-unreduced",  # a power left at den times the scale, not its least
        "_pykernel.py",
        "    target, (key,) = target.least({key: 1})\n",
        "",
        (
            "tests/test_kernel.py::TestPyKernel::test_mono_pow_scales_the_units",
            "tests/test_kernel.py::TestPyKernel::test_mono_pow_lands_at_the_least_scale",
        ),
    ),
    Mutant(
        "monomial-equality-within-one-frame",  # keys of two frames compared as they are
        "_pykernel.py",
        "    k1, k2 = f1.rekey(k1, frame), f2.rekey(k2, frame)\n",
        "",
        (
            "tests/test_eval_oracle.py::TestMonomialOracle::test_product",
            "tests/test_kernel.py::TestOrder::test_tie_break_first_variable_larger_exponent",
        ),
    ),
    Mutant(
        "closed-sum-u-in-its-own-frame",  # u's key read as a key of the join
        "qpnumbers.py",
        "u = fu.rekey(ku, frame)",
        "u = ku",
        (
            "tests/test_qpnumbers.py::TestTabulatedValues::test_two_parameter_numbers",
            "tests/test_eval_oracle.py::TestCrossFrame::test_ladder_entry_and_closed_sum[h1]",
        ),
    ),
    # -- substitution (laurent.py) --
    Mutant(
        "substitute-keeps-cancelled-terms",  # a zero sum stays in the result
        "_pykernel.py",
        "            elif new in out:\n",
        "            elif new not in out:\n",
        ("tests/test_laurent.py::TestSubstitute::test_images_that_meet_cancel",),
    ),
    Mutant(
        "substitute-map-ignores-scale",  # v^(1/s) sent to the image itself, not its 1/s-th power
        "laurent.py",
        "units = {v: f.rekey(k, target) // frame.scale for",
        "units = {v: f.rekey(k, target) for",
        (
            "tests/test_eval_oracle.py::TestRingOperations::test_substitute",
            "tests/test_laurent.py::TestSubstitute::test_fractional_exponents_take_powers_of_the_images",
        ),
    ),
    # -- cross-frame equality and the summing loop (laurent.py, _pykernel.py) --
    Mutant(
        "equality-within-one-frame",  # keys compared as if both sides shared a frame
        "laurent.py",
        "            _, a, b = _common(self, other, max(self._r, other._r))\n            return a == b\n",
        "            return self._t == other._t\n",
        (
            "tests/test_eval_oracle.py::TestCrossFrame::test_sum_minus_operand",
            "tests/test_eval_oracle.py::TestCrossFrame::test_fractional_and_integer_powers",
        ),
    ),
    Mutant(
        "summing-loop-keeps-cancelled-terms",  # a zero sum stays as a zero coefficient
        "_pykernel.py",
        "        if s:\n            out[k] = s\n        elif k in out:\n            del out[k]\n",
        "        out[k] = s\n",
        (
            "tests/test_kernel.py::TestPyKernel::test_poly_add_cancellation",
            "tests/test_eval_oracle.py::TestCrossFrame::test_sum_minus_operand",
        ),
    ),
    # -- the one reduction of exact division and square roots (laurent.py) --
    Mutant(
        "division-in-dict-order",  # the remainder reduced at its first key, not its leading one
        "laurent.py",
        "        lt = max(rem)\n        k = lt - lead\n",
        "        lt = next(iter(rem))\n        k = lt - lead\n",
        (
            "tests/test_cli.py::TestEval::test_monomial_division_names_the_leading_offending_term"
            "[(5 + 3*t)/2]",
        ),
    ),
    Mutant(
        "division-without-degree-floor",  # both callers lose the floor on the candidate
        "laurent.py",
        "        if k < low:\n            raise error(floor_text)\n",
        "",
        (
            "tests/test_laurent.py::TestReductionSteps::test_division"
            "[x^3 + x*y^2 + y^2-x + 1-3-remainder degree fell below the numerator's range]",
            "tests/test_laurent.py::TestExactSqrt::test_failure_texts"
            "[x^3 + 3*x + 9*x^-1*y-candidate term degree fell below the root's range]",
        ),
    ),
    # -- exact square roots (laurent.py) --
    Mutant(
        "sqrt-root-key-with-offset",  # the root's leading key read with the bias
        "laurent.py",
        "    rm = lt // 2\n",
        "    rm = (lt + frame._bias) // 2\n",
        ("tests/test_eval_oracle.py::TestSqrtFrame",),
    ),
    Mutant(
        "sqrt-without-own-square",  # a new root term leaves its square in the remainder
        "laurent.py",
        "        _K.poly_accum_term_mul(rem, {k: c}, k, -c)\n",
        "",
        (
            "tests/test_laurent.py::TestExactSqrt::test_half_power_root",
            "tests/test_laurent.py::TestReductionSteps::test_sqrt",
        ),
    ),
    # -- the multipliers (qpnumbers.py) --
    Mutant(
        "multiplier-raises-runtime-error",  # a non-monomial quotient escapes the run
        "qpnumbers.py",
        'raise NotDivisibleError(f"quotient is not a monomial: {q}")',
        'raise RuntimeError(f"quotient is not a monomial: {q}")',
        (
            "tests/test_verify.py::TestReports::test_failed_exact_operation_is_the_verdict"
            "[non-monomial-eq33-multiplier]",
            "tests/test_verify.py::TestReports::test_failed_exact_operation_is_the_verdict"
            "[non-monomial-eq34-multiplier]",
            "tests/test_cli.py::TestVerify::test_wrong_number_pair_reports_every_check"
            "[non-monomial-quotient]",
        ),
    ),
    # -- knot-vs-link over (a, z) and the run table (verify.py) --
    Mutant(
        "knot-vs-link-next-image",  # knot m+1's image against link 2m+1
        "verify.py",
        "same = table.az_image(n_max, m) == link_entry",
        "same = table.az_image(n_max, m + 1) == link_entry",
        ("tests/test_verify.py::TestReports::test_all_pass_at_25",),
    ),
    Mutant(
        "knot-vs-link-no-az-form-crashes",  # NotExpressibleError escapes
        "verify.py",
        "                except (NotExpressibleError, ValueError):\n",
        "                except ZeroDivisionError:\n",
        (
            "tests/test_verify.py::TestReports::"
            "test_knot_vs_link_on_a_knot_entry_with_no_az_form[non-symmetric]",
            "tests/test_verify.py::TestReports::"
            "test_knot_vs_link_on_a_knot_entry_with_no_az_form[stray-variable]",
        ),
    ),
    Mutant(
        "knot-vs-link-detail-over-az",  # the FAIL text prints the (a, z) link entry
        "verify.py",
        "                if not same:\n                    link_entry = from_az_form(link_entry)\n",
        "",
        ("tests/test_verify.py::TestReports::test_knot_checks_report_a_wrong_number_pair",),
    ),
    Mutant(
        "az-roundtrip-tautology",  # the round trip never leaves (a, t)
        "verify.py",
        "back = from_az_form(table.az_image(n_max, m))",
        "back = p",
        ("tests/test_verify.py::TestReports::test_failure_texts[az-roundtrip]",),
    ),
    Mutant(
        "az-roundtrip-no-az-form-crashes",  # to_az_form's error escapes the check
        "verify.py",
        "        except (NotExpressibleError, ValueError) as exc:\n",
        "        except ZeroDivisionError as exc:\n",
        (
            "tests/test_verify.py::TestReports::test_az_roundtrip_on_a_knot_entry_with_no_az_form",
            "tests/test_verify.py::TestReports::test_failed_exact_operation_is_the_verdict"
            "[az-roundtrip]",
        ),
    ),
    Mutant(
        "run-table-stores-nothing",  # every request converts again
        "verify.py",
        "self.az_image: Callable[[int, int], LaurentPoly] = cache(",
        "self.az_image: Callable[[int, int], LaurentPoly] = (",
        ("tests/test_verify.py::TestReports::test_one_conversion_pass_each_way_per_run",),
    ),
    # -- the check runner and registry (verify.py) --
    Mutant(
        "runner-takes-last-mismatch",  # the verdict is the check's last mismatch
        "verify.py",
        "mismatch = next(mismatches(n_max, table), None)",
        "mismatch = ([None] + list(mismatches(n_max, table)))[-1]",
        (
            "tests/test_verify.py::TestReports::test_failure_texts[h1-equivalence]",
            "tests/test_verify.py::TestReports::test_three_route_stops_at_its_first_mismatch",
        ),
    ),
    Mutant(
        "runner-ignores-fixed-range",  # eq8-coeffs, trefoil, roundtrip-sect7 over 1..n_max
        "verify.py",
        "(first, last or n_max)",
        "(first, n_max)",
        (
            "tests/test_verify.py::TestReports::test_pass_reports[eq8-coeffs@2]",
            "tests/test_verify.py::TestReports::test_pass_reports[trefoil@2]",
            "tests/test_verify.py::TestReports::test_pass_reports[roundtrip-sect7@2]",
        ),
    ),
    Mutant(
        "eq34-note-threshold",  # the pass note finds no difference at n_max = 2
        "verify.py",
        "        if n_max >= 2\n",
        "        if n_max >= 3\n",
        ("tests/test_verify.py::TestReports::test_pass_reports[eq34-multiplier@2]",),
    ),
    # -- the one emitter of qp-num, series and table (cli.py) --
    Mutant(
        "emitter-csv-branch-takes-json",  # CSV prints the JSON object, JSON the CSV rows
        "cli.py",
        '    elif fmt == "csv":\n',
        '    elif fmt == "json":\n',
        (
            "tests/test_cli.py::TestQpNum::test_csv",
            "tests/test_cli.py::TestQpNum::test_json",
            "tests/test_cli.py::TestSeries::test_csv",
            "tests/test_cli.py::TestTable::test_csv_columns",
        ),
    ),
    Mutant(
        "emitter-builds-json-always",  # every format builds the JSON object
        "cli.py",
        '    if fmt == "text":\n',
        '    doc()\n    if fmt == "text":\n',
        ("tests/test_cli.py::TestEmitter::test_only_json_builds_the_json_object",),
    ),
    # -- the series JSON loader (skein.py) --
    Mutant(
        "json-keeps-duplicate-n",
        "skein.py",
        "            if n in entries:\n",
        "            if False:\n",
        ("tests/test_skein.py::TestSeriesObject::test_json_rejects_bad_indices[duplicate-n]",),
    ),
    Mutant(
        "json-accepts-even-knot-n",
        "skein.py",
        "                if n % 2 == 0:\n",
        "                if False:\n",
        ("tests/test_skein.py::TestSeriesObject::test_json_rejects_bad_indices[even-knot-n]",),
    ),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis", ".pytest_cache")
    for name in _COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=skip)
        else:
            shutil.copy2(src, dest / name)


def _mutated(mutant: Mutant) -> str:
    """The record's file with its one replacement made."""
    text = (ROOT / "src" / "qpknot" / mutant.file).read_text()
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(
            f"stale record {mutant.name}: its old text occurs {count} times in {mutant.file}"
        )
    return text.replace(mutant.old, mutant.new)


def _pytest_command(tests, seed: int) -> list[str]:
    """The pytest run of the named tests, drawing from Hypothesis ``seed``."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-profile=mutants", f"--hypothesis-seed={seed}"]
    return cmd + ["--tb=no", "-rfE", *tests]


def _run(tree: Path, tests, seed: int) -> tuple[set[str] | None, str]:
    """The named tests that fail in ``tree`` (None on a timeout, all of
    them when pytest cannot collect them), and pytest's output."""
    cmd = _pytest_command(tests, seed)
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, ""
    if proc.returncode in (2, 4):  # collection failed: a module, or the package, does not import
        return set(tests), proc.stdout
    if proc.returncode not in (0, 1):  # 1: tests failed; others: internal error, none collected
        raise SystemExit(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return _failed(proc.stdout), proc.stdout


def _failed(stdout: str) -> set[str]:
    """What follows ``FAILED`` or ``ERROR`` on pytest's summary lines: a
    node id, then `` - `` and the message when there is one.  The line is
    not cut at `` - ``, since a parametrized id such as ``test_f[a - b]``
    may hold it too; `_failing` matches ids as prefixes instead."""
    lines = (line.partition(" ") for line in stdout.splitlines())
    return {rest for word, _, rest in lines if word in ("FAILED", "ERROR")}


def _failing(tests, failed: set[str]) -> list[str]:
    """The named tests among ``failed`` (summary lines from `_failed`); a
    file, class or function id fails when any test under it, or any of its
    parametrized instances ``id[...]``, does."""
    return [
        t
        for t in tests
        if any(f == t or f.startswith((t + " - ", t + "::", t + "[")) for f in failed)
    ]


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Run the mutation gate.")
    parser.add_argument(
        "--seed", type=int, default=SEED,
        help=f"first of the two Hypothesis seeds of every record, to replay a verdict (default {SEED})",
    )
    return parser.parse_args(argv)


def _verdict(tests, failed: set[str] | None) -> str:
    """A mutant's verdict from the named tests and those that failed
    (None on a timeout)."""
    if failed is None:
        return "killed (timeout)"
    survivors = sorted(set(tests) - set(_failing(tests, failed)))
    return "SURVIVED: " + ", ".join(survivors) if survivors else "killed"


def _seeds(seed: int) -> tuple[int, int]:
    """The two Hypothesis seeds every record runs under."""
    return seed, seed + 1


def main(argv=None) -> int:
    seeds = _seeds(_parse_args(argv).seed)
    mutated = [_mutated(m) for m in MUTANTS]  # no stale record runs
    print("hypothesis seeds " + " and ".join(map(str, seeds)), flush=True)
    with tempfile.TemporaryDirectory(prefix="qpknot-mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        for seed in seeds:
            failed, out = _run(base, tests, seed)
            if failed is None or _failing(tests, failed):
                raise SystemExit(f"the named tests do not all pass unmutated under seed {seed}:\n{out}")

        killed, differ = 0, []
        for i, (m, text) in enumerate(zip(MUTANTS, mutated)):
            tree = Path(tmp) / f"m{i}"
            _copy_tree(tree)
            (tree / "src" / "qpknot" / m.file).write_text(text)
            verdicts = []
            start = time.perf_counter()
            for seed in seeds:
                verdicts.append(_verdict(m.tests, _run(tree, m.tests, seed)[0]))
            seconds = time.perf_counter() - start
            shutil.rmtree(tree)
            alive = [v.startswith("SURVIVED") for v in verdicts]
            killed += not any(alive)
            if len(set(alive)) > 1:
                differ.append(m.name)
            shown = verdicts[0] if len(set(verdicts)) == 1 else " | ".join(
                f"seed {seed}: {v}" for seed, v in zip(seeds, verdicts)
            )
            print(f"{seconds:7.1f} s  {m.name:34} {shown}", flush=True)
    print(f"killed {killed}/{len(MUTANTS)} under both seeds")
    if differ:
        print("verdict differs between the seeds: " + ", ".join(differ))
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
