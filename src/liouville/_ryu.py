"""Field CSV text: float64 values as the bytes of ``repr``, numpy-fast.

Python's ``repr`` prints the shortest decimal digits that read back to
the same float, closest to it, ties to even.  Ryu (Ulf Adams, "Ryū: fast
float-to-string conversion", PLDI 2018) finds those digits with 64-bit
integer arithmetic alone; here it runs on whole uint64 arrays, every
lane in lockstep.  The digits are then laid out as ``repr`` does:
positional for -4 < decpt <= 16, else ``d.ddde±XX``, ``.0`` on integral
values, and ``nan``, ``inf``, ``-inf``, ``-0.0``.

Integer arrays are uint64, or small signed counts that never meet one:
numpy promotes a uint64/int64 pair to float64.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_POW10 = np.array([10 ** k for k in range(20)], dtype=_U)
_POW5 = np.array([5 ** k for k in range(22)], dtype=_U)


def _exponent_tables():
    """Ryu's step-3 constants per biased exponent E (0..2047; E = 2047,
    inf and nan, repeats 2046 and is overwritten): the 125-bit multiplier
    as four 32-bit limbs (low first), the right shift past 64 bits and
    its complement, the decimal exponent of the scaled interval, and the
    trailing-zero cases: ``mask2`` is 2^q - 1 where the interval is
    scaled by 2^-q (all ones elsewhere), ``q5`` is q where it is scaled
    by 5^-q with q <= 21 (-1 elsewhere)."""
    # 5^i with exactly 125 bits, and floor(2^(bits(5^i) + 124) / 5^i) + 1
    split, inv = [], []
    p = 1
    for _ in range(342):
        n = p.bit_length()
        split.append(p >> (n - 125) if n >= 125 else p << (125 - n))
        inv.append((1 << (n + 124)) // p + 1)
        p *= 5

    def pow5bits(e):  # bit length of 5^e (1 at e = 0)
        return ((e * 1217359) >> 19) + 1

    e2 = np.maximum(np.minimum(np.arange(2048), 2046), 1) - 1077
    pos = e2 >= 0
    e2p, e2n = np.maximum(e2, 0), np.maximum(-e2, 0)
    q = np.where(pos, ((e2p * 78913) >> 18) - (e2p > 3),
                 ((e2n * 732923) >> 20) - (e2n > 1))
    i = e2n - q  # the 5^i of a negative e2
    shift = np.where(pos, q - e2 + pow5bits(q) + 124,
                     q - pow5bits(i) + 125) - 64

    def limbs(table):
        return np.array([[(m >> s) & 0xFFFFFFFF for m in table]
                         for s in (0, 32, 64, 96)], dtype=_U)

    mul = np.where(pos, limbs(inv)[:, np.where(pos, q, 0)],
                   limbs(split)[:, np.where(pos, 0, i)])
    # Ryu tests 2^q | mv for q < 63 only; mv = 4 m2 < 2^55, so 2^63 - 1
    # answers "no" for every larger q too
    mask2 = np.where(pos, 2 ** 64 - 1, (1 << np.minimum(q, 63).astype(_U))
                     - _U(1)).astype(_U)
    return (mul, shift.astype(_U), (64 - shift).astype(_U),
            np.where(pos, q, q + e2).astype(np.int16), mask2,
            np.where(pos & (q <= 21), q, -1).astype(np.int8))


_LIMBS, _SHIFT, _SHIFT_C, _E10, _MASK2, _Q5 = _exponent_tables()


def _mul_shift(m, b, s, s_c):
    """floor(m * b / 2^(64 + s)) for m < 2^55, b the four 32-bit limbs of
    a 128-bit multiplier, 0 < s < 64 and s_c = 64 - s: Ryu's mulShift64,
    its 64 x 64 products formed from 32-bit halves."""
    m_lo, m_hi = m & _M32, m >> _U(32)

    def mul64(b_lo, b_hi):  # m * (b_hi 2^32 + b_lo) as (high, low) words
        lo = m_lo * b_lo
        mid1 = m_hi * b_lo + (lo >> _U(32))
        mid2 = m_lo * b_hi + (mid1 & _M32)
        high = m_hi * b_hi + (mid1 >> _U(32)) + (mid2 >> _U(32))
        return high, (mid2 << _U(32)) | (lo & _M32)

    high0, _ = mul64(b[0], b[1])
    high1, low1 = mul64(b[2], b[3])
    total = high0 + low1
    high1 += total < high0
    return (total >> s) | (high1 << s_c)


def _shortest(bits):
    """Ryu's shortest digits of the finite nonzero float64 lanes ``bits``
    (uint64): ``(digits, e10)`` with value = digits * 10^e10."""
    ieee_e = (bits >> _U(52)) & _U(0x7FF)
    mant = bits & _U((1 << 52) - 1)
    m2 = mant | ((ieee_e != 0).astype(_U) << _U(52))
    even = (m2 & _U(1)) == 0
    mm_shift = ((mant != 0) | (ieee_e <= 1)).astype(_U)
    E = ieee_e.astype(np.intp)
    b = np.take(_LIMBS, E, axis=1)
    s, s_c = np.take(_SHIFT, E), np.take(_SHIFT_C, E)
    mv = m2 << _U(2)
    vr = _mul_shift(mv, b, s, s_c)
    vp = _mul_shift(mv + _U(2), b, s, s_c)
    vm = _mul_shift(mv - _U(1) - mm_shift, b, s, s_c)

    # Is the scaled interval exact in the middle (vr) or at its low end
    # (vm)?  Scaled by 2^-q, the bits shifted out of mv decide; q <= 1
    # leaves two trailing zero bits, so the middle is exact and the low
    # end is exact iff mm_shift is 1 (an excluded high end moves in).
    mask2 = np.take(_MASK2, E)
    vr_tz = (mv & mask2) == 0
    small = vr_tz & (mask2 <= 1)
    vm_tz = small & even & (mm_shift == 1)
    vp -= (small & ~even).astype(_U)
    # Scaled by 5^-q with q <= 21: divisibility of mv, mm or mp by 5^q.
    q5 = np.take(_Q5, E)
    k = np.flatnonzero(q5 >= 0)
    if k.size:
        p5, mv_k, even_k = np.take(_POW5, q5[k]), mv[k], even[k]
        by5 = mv_k % _U(5) == 0
        vr_tz[k] = by5 & (mv_k % p5 == 0)
        vm_tz[k] = ~by5 & even_k & ((mv_k - _U(1) - mm_shift[k]) % p5 == 0)
        vp[k] -= (~by5 & ~even_k & ((mv_k + _U(2)) % p5 == 0)).astype(_U)

    # Drop the digits vp and vm disagree on: the largest n with
    # vp // 10^n > vm // 10^n, by halving steps.
    n = np.zeros(bits.shape, dtype=np.intp)
    vm0 = vm
    for step in (16, 8, 4, 2, 1):
        vp_d, vm_d = vp // _POW10[step], vm // _POW10[step]
        take = vp_d > vm_d
        if take.any():
            vp, vm = np.where(take, vp_d, vp), np.where(take, vm_d, vm)
            n += step * take
    vr_n = vr // np.take(_POW10, n)
    last = np.where(n > 0, vr // np.take(_POW10, np.maximum(n - 1, 0))
                    - vr_n * _U(10), _U(0))

    k = np.flatnonzero(vr_tz | vm_tz)  # rare: an exact end or middle
    if k.size:
        n_k, vr_k = n[k], vr[k]
        # exact while the digits dropped below the last one are all zero
        vr_tz[k] &= vr_k % np.take(_POW10, np.maximum(n_k - 1, 0)) == 0
        vm_tz[k] &= vm0[k] % np.take(_POW10, n_k) == 0
        # an exact low end also drops its trailing zeros
        k = k[vm_tz[k]]
        r, m, dropped, exact = vr_n[k], vm[k], last[k], vr_tz[k]
        for _ in range(20 if k.size else 0):  # 20 digits at most
            m_d = m // _U(10)
            take = m == m_d * _U(10)
            if not take.any():
                break
            r_d = r // _U(10)
            exact &= ~take | (dropped == 0)
            dropped = np.where(take, r - r_d * _U(10), dropped)
            r, m = np.where(take, r_d, r), np.where(take, m_d, m)
            n[k] += take
        vr_n[k], vm[k], last[k], vr_tz[k] = r, m, dropped, exact

    # Exactly halfway: round to even.
    last[vr_tz & (last == 5) & ((vr_n & _U(1)) == 0)] = 4
    up = ((vr_n == vm) & (~even | ~vm_tz)) | (last >= 5)
    return vr_n + up.astype(_U), np.take(_E10, E) + n


# Columns of one value's slot.  Every character a value can print has
# its own column, and a per-shape mask keeps the ones it does print:
#   0       '-'
#   1..5    '0.000' of a value below 1 ('nan' or 'inf' in 1..3)
#   6..22   the digits (A), for the part before the point
#   23      '.'
#   24..40  the digits again (B), for the part after it
#   41..45  'e', exponent sign, three exponent digits (46 is unused)
#   47      ',' or '\n'
_A, _POINT, _B, _EXP, _SEP = 6, 23, 24, 41, 47
_TEMPLATE = np.frombuffer(b"-0.000" + b"0" * 17 + b"." + b"0" * 17
                          + b"e+000 ,", dtype=np.uint8)
_PAIRS = np.frombuffer("".join(f"{r:02d}" for r in range(100)).encode(),
                       dtype=np.uint16)  # "00" .. "99"
_NAN_INF = np.frombuffer(b"naninf", dtype=np.uint8).reshape(2, 3)


def _keep_table():
    """Which columns a value keeps, by shape code: positional values at
    (decpt + 3) * 18 + nd for -4 < decpt <= 16 (value = 0.DIGITS x
    10^decpt, nd digits), exponent forms at 360 + nd + 18 [|exp| >= 100],
    nan and inf at 396; a minus sign adds 397."""
    keep = np.zeros((2 * 397, _SEP + 1), dtype=bool)
    for nd in range(1, 18):
        for decpt in range(-3, 17):
            row = keep[(decpt + 3) * 18 + nd]
            if decpt <= 0:
                row[1:3 - decpt] = True
                row[_B:_B + nd] = True
            else:
                row[_A:_A + decpt] = True
                row[_POINT] = True
                row[_B + decpt:_B + max(nd, decpt + 1)] = True
        for big in (0, 1):
            row = keep[360 + nd + 18 * big]
            row[_A] = True
            if nd > 1:
                row[_POINT] = True
                row[_B + 1:_B + nd] = True
            row[_EXP:_EXP + 5] = True
            row[_EXP + 2] = big
    keep[396, 1:4] = True
    keep[397:] = keep[:397]
    keep[397:, 0] = True
    keep[:, _SEP] = True
    return keep


_KEEP = _keep_table()


def format_csv(values: np.ndarray, nx: int, start: int = 0) -> str:
    """CSV text of ``values``, a run of a row-major field with rows of
    ``nx`` values that starts at the field's node ``start``: each value's
    ``repr``, then ``,``, or ``\\n`` after the last value of a row."""
    flat = np.ascontiguousarray(values, dtype=np.float64)
    bits = flat.view(_U)
    finite = (bits & _U(0x7FF0000000000000)) != _U(0x7FF0000000000000)
    work = finite & ((bits << _U(1)) != 0)
    if work.all():
        digits, e10 = _shortest(bits)
    else:
        digits = np.zeros(bits.shape, dtype=_U)
        e10 = np.zeros(bits.shape, dtype=np.intp)
        if work.any():
            digits[work], e10[work] = _shortest(bits[work])

    # digit count: the float estimate is off by at most one either way
    d1 = np.maximum(digits, _U(1))  # zero has one digit
    nd = np.log10(d1.astype(np.float64)).astype(np.intp) + 1
    nd += d1 >= np.take(_POW10, np.minimum(nd, 19))
    nd -= d1 < np.take(_POW10, nd - 1)
    decpt = e10 + nd  # value = 0.DIGITS x 10^decpt
    decpt[~work] = 1  # zero prints "0.0"; nan and inf are coded below
    exp = np.abs(decpt - 1)
    code = np.where((decpt > -4) & (decpt <= 16), (decpt + 3) * 18 + nd,
                    360 + nd + 18 * (exp >= 100))
    code[~finite] = 396
    code += 397 * (((bits >> _U(63)) != 0) & ~np.isnan(flat))

    out = np.empty((bits.size, _SEP + 1), dtype=np.uint8)
    out[:] = _TEMPLATE
    pairs = out.view(np.uint16)
    # 18 digits, left-aligned (the 18th is always 0), two at a time
    lead = digits * np.take(_POW10, 18 - nd)
    upper = lead // _U(10 ** 6)
    lo = lead - upper * _U(10 ** 6)
    hi = upper // _U(10 ** 6)
    mid = upper - hi * _U(10 ** 6)
    for col, part in ((_A // 2, hi), (_A // 2 + 3, mid), (_A // 2 + 6, lo)):
        part = part.astype(np.uint32)
        top = part // 10000
        low = part - top * 10000
        low_hi = low // 100
        pairs[:, col] = np.take(_PAIRS, top)
        pairs[:, col + 1] = np.take(_PAIRS, low_hi)
        pairs[:, col + 2] = np.take(_PAIRS, low - low_hi * 100)
    out[:, _POINT] = ord(".")  # over the 18th digit
    out[:, _B:_B + 17] = out[:, _A:_A + 17]
    out[:, _EXP + 1] = np.where(decpt <= 0, ord("-"), ord("+"))
    hundreds = exp // 100
    out[:, _EXP + 2] += hundreds.astype(np.uint8)
    pairs[:, (_EXP + 3) // 2] = np.take(_PAIRS, exp - hundreds * 100)
    out[(nx - 1 - start) % nx::nx, _SEP] = ord("\n")
    special = np.flatnonzero(~finite)
    if special.size:
        out[special, 1:4] = np.take(
            _NAN_INF, np.isinf(flat[special]).astype(np.intp), axis=0)
    return out[np.take(_KEEP, code, axis=0)].tobytes().decode("ascii")
