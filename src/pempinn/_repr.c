/* Shortest round-trip formatting of doubles for the CSV writers, in C.
 *
 * format_double writes the text of float.__repr__ byte for byte: the
 * shortest digit string that reads back as the same double (among several,
 * the nearest to its exact value, ties to an even last digit), found with
 * Ryu (Adams, "Ryu: fast float-to-string conversion", PLDI 2018); then
 * repr's layout of it: fixed notation for a decimal exponent from -4 to 15
 * with at least one digit after the point ("1.0", "0.0001",
 * "1000000000000000.0"), else exponent notation with a sign and at least
 * two exponent digits and no ".0" ("1e-05", "1e+16", "5e-324",
 * "1.7976931348623157e+308"); "-" before every negative value, -0.0
 * included; "nan" for every NaN and "inf"/"-inf".
 *
 * The two tables of 125-bit powers of 5, POW5_INV_SPLIT and POW5_SPLIT,
 * are not in this file: _kernel._repr_table computes them from Python ints
 * at build time and the compiler reads them with -include.
 *
 * _kernel.py builds this file into a shared library and loads it with
 * ctypes; its wrappers size the output buffers by the bounds below and
 * check the columns' dtypes, layout and lengths before each call.
 */

#include <stdint.h>
#include <string.h>

#ifndef POW5_TABLES
#error "build with the tables of _kernel._repr_table"
#endif

typedef __uint128_t uint128_t;

/* ceil(log2(5^e)) for 0 < e <= 3528, and 1 for e = 0: the bit length of 5^e. */
static inline int32_t pow5bits(int32_t e)
{
    return (int32_t)(((uint32_t)e * 1217359u) >> 19) + 1;
}

/* floor(log10(2^e)) for 0 <= e <= 1650. */
static inline uint32_t log10_pow2(int32_t e)
{
    return ((uint32_t)e * 78913u) >> 18;
}

/* floor(log10(5^e)) for 0 <= e <= 2620. */
static inline uint32_t log10_pow5(int32_t e)
{
    return ((uint32_t)e * 732923u) >> 20;
}

static inline int multiple_of_pow5(uint64_t value, uint32_t p)
{
    uint32_t count = 0;
    while (value % 5 == 0) {
        value /= 5;
        count++;
    }
    return count >= p;
}

static inline int multiple_of_pow2(uint64_t value, uint32_t p)
{
    return (value & ((1ull << p) - 1)) == 0;
}

/* (m * mul) >> j, mul a 128-bit table entry {low, high}, 64 < j. */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    const uint128_t b0 = (uint128_t)m * mul[0];
    const uint128_t b2 = (uint128_t)m * mul[1];
    return (uint64_t)(((b0 >> 64) + b2) >> (j - 64));
}

/* The shortest decimal digits and exponent of a finite double x > 0 of
 * IEEE mantissa bits ieee_m and exponent bits ieee_e: x reads back from
 * *digits * 10^*exp10. Ryu's d2d, steps 1-4. Kept out of line: inlined
 * into format_double, GCC 12 -O2 made the formatter 1.4-1.6x slower per
 * trajectory value on x86-64. */
static __attribute__((noinline)) void shortest(uint64_t ieee_m, uint32_t ieee_e,
                                               uint64_t *digits, int32_t *exp10)
{
    int32_t e2;
    uint64_t m2;
    if (ieee_e == 0) {
        e2 = 1 - 1023 - 52 - 2;
        m2 = ieee_m;
    } else {
        e2 = (int32_t)ieee_e - 1023 - 52 - 2;
        m2 = (1ull << 52) | ieee_m;
    }
    /* Round-half-even reading includes the interval's ends for even m2. */
    const int accept_bounds = (m2 & 1) == 0;

    /* The interval of values that read back as x, times 4: (mm, mp). The
     * lower gap is half as wide at a power of two (mm_shift 0). */
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = ieee_m != 0 || ieee_e <= 1;

    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_trailing_zeros = 0, vr_trailing_zeros = 0;
    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        e10 = (int32_t)q;
        const int32_t k = 125 + pow5bits((int32_t)q) - 1;
        const int32_t i = -e2 + (int32_t)q + k;
        vr = mul_shift(4 * m2, POW5_INV_SPLIT[q], i);
        vp = mul_shift(4 * m2 + 2, POW5_INV_SPLIT[q], i);
        vm = mul_shift(4 * m2 - 1 - mm_shift, POW5_INV_SPLIT[q], i);
        if (q <= 21) {
            /* At most one of mp, mv and mm is a multiple of 5. */
            if (mv % 5 == 0)
                vr_trailing_zeros = multiple_of_pow5(mv, q);
            else if (accept_bounds)
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            else
                vp -= multiple_of_pow5(mv + 2, q);
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        e10 = (int32_t)q + e2;
        const int32_t i = -e2 - (int32_t)q;
        const int32_t k = pow5bits(i) - 125;
        const int32_t j = (int32_t)q - k;
        vr = mul_shift(4 * m2, POW5_SPLIT[i], j);
        vp = mul_shift(4 * m2 + 2, POW5_SPLIT[i], j);
        vm = mul_shift(4 * m2 - 1 - mm_shift, POW5_SPLIT[i], j);
        if (q <= 1) {
            /* mv = 4 * m2 has at least two trailing zero bits. */
            vr_trailing_zeros = 1;
            if (accept_bounds)
                vm_trailing_zeros = mm_shift == 1;
            else
                --vp;
        } else if (q < 63) {
            vr_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    /* Remove digits while the interval still holds a shorter number. */
    int32_t removed = 0;
    uint32_t last_removed = 0;
    uint64_t output;
    if (vm_trailing_zeros || vr_trailing_zeros) {
        while (vp / 10 > vm / 10) {
            vm_trailing_zeros &= vm % 10 == 0;
            vr_trailing_zeros &= last_removed == 0;
            last_removed = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            ++removed;
        }
        if (vm_trailing_zeros) {
            while (vm % 10 == 0) {
                vr_trailing_zeros &= last_removed == 0;
                last_removed = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                ++removed;
            }
        }
        if (vr_trailing_zeros && last_removed == 5 && vr % 2 == 0)
            last_removed = 4; /* an exact tie rounds to even */
        output = vr + ((vr == vm && (!accept_bounds || !vm_trailing_zeros))
                       || last_removed >= 5);
    } else {
        int round_up = 0;
        if (vp / 100 > vm / 100) {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while (vp / 10 > vm / 10) {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            ++removed;
        }
        output = vr + (vr == vm || round_up);
    }
    *digits = output;
    *exp10 = e10 + removed;
}

static const char DIGIT_PAIRS[201] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* The decimal digits of v, ending just before end; returns their start. */
static inline char *digits_before(char *end, uint64_t v)
{
    while (v >= 100) {
        const uint64_t q = v / 100;
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * (v - 100 * q), 2);
        v = q;
    }
    if (v >= 10) {
        end -= 2;
        memcpy(end, DIGIT_PAIRS + 2 * v, 2);
    } else {
        *--end = (char)('0' + v);
    }
    return end;
}

/* repr(x) at p, at most 24 bytes ("-2.2250738585072014e-308", _kernel's
 * _REPR_BYTES); returns the end. */
static char *format_double(char *p, double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t ieee_m = bits & ((1ull << 52) - 1);
    const uint32_t ieee_e = (uint32_t)(bits >> 52) & 0x7ff;
    if (ieee_e == 0x7ff && ieee_m != 0) {
        memcpy(p, "nan", 3);
        return p + 3;
    }
    if (bits >> 63)
        *p++ = '-';
    if (ieee_e == 0x7ff) {
        memcpy(p, "inf", 3);
        return p + 3;
    }
    if (ieee_e == 0 && ieee_m == 0) {
        memcpy(p, "0.0", 3);
        return p + 3;
    }

    uint64_t digits;
    int32_t exp10;
    const int32_t e2 = (int32_t)ieee_e - 1023 - 52;
    const uint64_t m2 = (1ull << 52) | ieee_m;
    if (ieee_e != 0 && -52 <= e2 && e2 <= 0 && (m2 & ((1ull << -e2) - 1)) == 0) {
        /* An integer below 2^53 is its own shortest form. */
        digits = m2 >> -e2;
        exp10 = 0;
    } else {
        shortest(ieee_m, ieee_e, &digits, &exp10);
    }
    while (digits % 10 == 0) { /* repr writes no trailing zero digit */
        digits /= 10;
        ++exp10;
    }

    char buf[20];
    const char *d = digits_before(buf + sizeof buf, digits);
    const int32_t n = (int32_t)(buf + sizeof buf - d);
    const int32_t point = exp10 + n; /* x = 0.<digits> * 10^point */
    if (point <= -4 || point > 16) {
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            memcpy(p, d + 1, (size_t)(n - 1));
            p += n - 1;
        }
        int32_t e = point - 1;
        *p++ = 'e';
        *p++ = e < 0 ? '-' : '+';
        if (e < 0)
            e = -e;
        if (e >= 100) {
            *p++ = (char)('0' + e / 100);
            e %= 100;
        }
        memcpy(p, DIGIT_PAIRS + 2 * e, 2);
        return p + 2;
    }
    if (point <= 0) {
        memcpy(p, "0.000", (size_t)(2 - point));
        p += 2 - point;
        memcpy(p, d, (size_t)n);
        return p + n;
    }
    if (point < n) {
        memcpy(p, d, (size_t)point);
        p += point;
        *p++ = '.';
        memcpy(p, d + point, (size_t)(n - point));
        return p + (n - point);
    }
    memcpy(p, d, (size_t)n);
    p += n;
    memset(p, '0', (size_t)(point - n));
    p += point - n;
    memcpy(p, ".0", 2);
    return p + 2;
}

/* f"{v:d}" at p, at most 20 bytes ("-9223372036854775808"); returns the
 * end. */
static char *format_int(char *p, int64_t v)
{
    uint64_t u = (uint64_t)v;
    if (v < 0) {
        *p++ = '-';
        u = 0 - u;
    }
    char buf[20];
    const char *d = digits_before(buf + sizeof buf, u);
    const size_t n = (size_t)(buf + sizeof buf - d);
    memcpy(p, d, n);
    return p + n;
}

/* Rows [start, stop) of the trajectory CSV into traj and of its
 * diagnostics CSV into diag, from the eight columns of
 * simulator.trajectory_arrays: times, volts, tmems, c_h2o2s, c_hos, trs
 * and frrs (double) and iters (int64_t). A trajectory row is
 * "t,V,t_mem\n", a diagnostics row "t,c_ho,c_h2o2,tr,frr,iters\n".
 * Writes at most 3 * 24 + 3 and 5 * 24 + 20 + 6 bytes per row; lens
 * receives the two lengths written. */
void pempinn_trajectory_rows(void *const *cols, int64_t start, int64_t stop,
                             char *traj, char *diag, int64_t *lens)
{
    const double *const t = cols[0], *const v = cols[1], *const m = cols[2],
                 *const h2o2 = cols[3], *const ho = cols[4], *const tr = cols[5],
                 *const fr = cols[6];
    const int64_t *const it = cols[7];
    char *p = traj, *q = diag;
    for (int64_t i = start; i < stop; i++) {
        char *const time = p;
        p = format_double(p, t[i]);
        memcpy(q, time, (size_t)(p - time)); /* formatted once, for both rows */
        q += p - time;
        *p++ = ',';
        p = format_double(p, v[i]);
        *p++ = ',';
        p = format_double(p, m[i]);
        *p++ = '\n';
        *q++ = ',';
        q = format_double(q, ho[i]);
        *q++ = ',';
        q = format_double(q, h2o2[i]);
        *q++ = ',';
        q = format_double(q, tr[i]);
        *q++ = ',';
        q = format_double(q, fr[i]);
        *q++ = ',';
        q = format_int(q, it[i]);
        *q++ = '\n';
    }
    lens[0] = p - traj;
    lens[1] = q - diag;
}

/* n_rows rows of the n_cols double columns cols into out, each row the
 * prefix_len bytes of prefix, the values joined by ",", the suffix_len
 * bytes of suffix and "\n". Writes at most n_cols * (24 + 1) + prefix_len
 * + suffix_len bytes per row; returns the length written. */
int64_t pempinn_float_rows(const double *const *cols, int64_t n_cols, int64_t n_rows,
                           const char *prefix, int64_t prefix_len,
                           const char *suffix, int64_t suffix_len, char *out)
{
    char *p = out;
    for (int64_t i = 0; i < n_rows; i++) {
        memcpy(p, prefix, (size_t)prefix_len);
        p += prefix_len;
        for (int64_t c = 0; c < n_cols; c++) {
            if (c)
                *p++ = ',';
            p = format_double(p, cols[c][i]);
        }
        memcpy(p, suffix, (size_t)suffix_len);
        p += suffix_len;
        *p++ = '\n';
    }
    return p - out;
}
