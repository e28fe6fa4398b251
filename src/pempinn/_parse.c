/* Exact parsing of dataset CSV rows for simulator.load_dataset, in C.
 *
 * pempinn_dataset_rows reads whole lines of a dataset CSV into the train
 * and test columns of a Dataset. It accepts a narrow grammar and declines
 * everything else, so that load_dataset reads a declined file with
 * np.loadtxt instead and gives that reader's values and errors:
 *
 * - a line feed ends every line, and an empty line is skipped;
 * - fields are split on ",", with no quoting;
 * - the split field is exactly "train" or "test";
 * - a number field is -?D+(.D*)?([eE][+-]?D+)? with at most 19 significant
 *   digits (leading zeros are not counted), and its value is finite;
 * - any other field, and the header, holds ASCII bytes other than "\r"
 *   and NUL;
 * - a row has a field at every header position up to the last column
 *   read.
 *
 * A number becomes the double nearest its decimal value (ties to even),
 * as float() and np.loadtxt read it, by Eisel-Lemire's algorithm (Lemire,
 * "Number Parsing at a Gigabyte per Second", SPE 2021) as fast_float
 * writes it. A product whose low word is all ones for a power of ten
 * outside [-27, 55] is Eisel-Lemire's bail-out case: the file is declined,
 * though Mushtak and Lemire ("Fast number parsing without fallback", SPE
 * 2023) show the product would be right.
 *
 * The table of 128-bit powers of 5, POW5_128, is not in this file:
 * _kernel._parse_table computes it from Python ints at build time and the
 * compiler reads it with -include.
 */

#include <stdint.h>
#include <string.h>

#ifndef POW5_128_TABLE
#error "build with the table of _kernel._parse_table"
#endif

typedef __uint128_t uint128_t;

#define POW10_MIN (-342) /* below it every decimal of 19 digits reads as 0 */
#define POW10_MAX 308    /* above it every nonzero decimal reads as inf */

/* What each field of a row holds, by its position in the header. */
enum field_role { FIELD_OTHER, FIELD_SPLIT, FIELD_T, FIELD_V, FIELD_M };

/* The columns the rows go to: train t_hours, voltage_V, thickness_cm,
 * then the same for test, each of capacity doubles, and the rows of each
 * split written so far. */
struct rows_out {
    double *columns[6];
    int64_t capacity;
    int64_t rows[2];
};

static inline int is_digit(unsigned char c)
{
    return (unsigned char)(c - '0') < 10;
}

/* A byte that a field other than a split or a number may hold. */
static inline int is_other(unsigned char c)
{
    return c != 0 && c != '\r' && c < 0x80;
}

/* The bits of the double nearest w * 10^q (w < 2^64), with the sign bit of
 * negative, into *bits; returns 0 where the value is infinite or in the
 * bail-out case. */
static int decimal_to_double(uint64_t w, int64_t q, int negative, uint64_t *bits)
{
    uint64_t word = 0;
    if (w != 0 && q >= POW10_MIN) {
        if (q > POW10_MAX)
            return 0;
        const int lz = __builtin_clzll(w);
        w <<= lz;
        const uint64_t *pow5 = POW5_128[q - POW10_MIN];
        const uint128_t first = (uint128_t)w * pow5[0];
        uint64_t high = (uint64_t)(first >> 64), low = (uint64_t)first;
        if ((high & 0x1FF) == 0x1FF) {
            /* The 55 bits kept may be one short: add the next word. */
            const uint64_t second = (uint64_t)(((uint128_t)w * pow5[1]) >> 64);
            low += second;
            high += second > low;
        }
        if (low == UINT64_MAX && (q < -27 || q > 55))
            return 0;
        const int upperbit = (int)(high >> 63);
        const int shift = upperbit + 9;
        uint64_t mantissa = high >> shift;
        /* floor(q * log2(10)) + 63, plus the bias. */
        int64_t power2 = ((217706 * q) >> 16) + 63 + upperbit - lz + 1023;
        if (power2 <= 0) {
            /* Subnormal, or a normal reached only by rounding up. */
            if (1 - power2 >= 64) {
                mantissa = 0;
            } else {
                mantissa >>= 1 - power2;
                mantissa += mantissa & 1;
                mantissa >>= 1;
            }
            power2 = mantissa >= (1ull << 52);
        } else {
            /* An exact tie rounds to even, not up. */
            if (low <= 1 && q >= -4 && q <= 23 && (mantissa & 3) == 1
                && mantissa << shift == high)
                mantissa &= ~1ull;
            mantissa += mantissa & 1;
            mantissa >>= 1;
            if (mantissa >= (2ull << 52)) {
                mantissa = 1ull << 52;
                power2++;
            }
            if (power2 >= 0x7FF)
                return 0;
        }
        word = (mantissa & ((1ull << 52) - 1)) | (uint64_t)power2 << 52;
    }
    *bits = word | (uint64_t)negative << 63;
    return 1;
}

/* The number field at p into *value; returns the byte after it, or NULL
 * where the field leaves the grammar or its value is infinite. */
static const char *parse_number(const char *p, double *value)
{
    const int negative = *p == '-';
    p += negative;
    if (!is_digit((unsigned char)*p))
        return NULL;
    uint64_t w = 0;
    int64_t q = 0;
    int digits = 0;
    while (*p == '0')
        p++;
    for (; is_digit((unsigned char)*p); p++) {
        if (++digits > 19)
            return NULL;
        w = 10 * w + (uint64_t)(*p - '0');
    }
    if (*p == '.') {
        p++;
        if (digits == 0)
            for (; *p == '0'; p++)
                q--;
        for (; is_digit((unsigned char)*p); p++) {
            if (++digits > 19)
                return NULL;
            w = 10 * w + (uint64_t)(*p - '0');
            q--;
        }
    }
    if (*p == 'e' || *p == 'E') {
        p++;
        const int exp_negative = *p == '-';
        if (*p == '-' || *p == '+')
            p++;
        if (!is_digit((unsigned char)*p))
            return NULL;
        int64_t e = 0;
        for (; is_digit((unsigned char)*p); p++)
            if (e < 100000) /* far past both ends of POW5_128 */
                e = 10 * e + (*p - '0');
        q += exp_negative ? -e : e;
    }
    uint64_t bits;
    if (!decimal_to_double(w, q, negative, &bits))
        return NULL;
    memcpy(value, &bits, sizeof bits);
    return p;
}

/* The len bytes at text, whole lines that each end in "\n", into out; the
 * first line is the header and is only checked when skip_header is set.
 * roles gives the role of the first width fields of a row; any later field
 * is FIELD_OTHER. Returns 0, or -1 where the text leaves the grammar or a
 * split's columns are full; the rows written before then stay counted. */
int64_t pempinn_dataset_rows(const char *text, int64_t len, int64_t skip_header,
                             const int8_t *roles, int64_t width, struct rows_out *out)
{
    const char *p = text, *const end = text + len;
    if (skip_header) {
        for (; *p != '\n'; p++)
            if (!is_other((unsigned char)*p))
                return -1;
        p++;
    }
    while (p < end) {
        if (*p == '\n') { /* a blank line */
            p++;
            continue;
        }
        int split = -1;
        double values[3];
        int64_t field = 0;
        for (;; field++) {
            const int role = field < width ? roles[field] : FIELD_OTHER;
            if (role == FIELD_SPLIT) {
                /* Byte by byte, so that no read passes the line's "\n". */
                if (p[0] == 't' && p[1] == 'r' && p[2] == 'a' && p[3] == 'i' && p[4] == 'n') {
                    split = 0;
                    p += 5;
                } else if (p[0] == 't' && p[1] == 'e' && p[2] == 's' && p[3] == 't') {
                    split = 1;
                    p += 4;
                } else {
                    return -1;
                }
                if (*p != ',' && *p != '\n')
                    return -1;
            } else if (role != FIELD_OTHER) {
                p = parse_number(p, &values[role - FIELD_T]);
                if (p == NULL || (*p != ',' && *p != '\n'))
                    return -1;
            } else {
                for (; *p != ',' && *p != '\n'; p++)
                    if (!is_other((unsigned char)*p))
                        return -1;
            }
            if (*p++ == '\n')
                break;
        }
        if (field + 1 < width)
            return -1;
        const int64_t row = out->rows[split];
        if (row == out->capacity)
            return -1;
        for (int c = 0; c < 3; c++)
            out->columns[3 * split + c][row] = values[c];
        out->rows[split] = row + 1;
    }
    return 0;
}
