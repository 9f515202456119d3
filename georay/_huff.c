/* Baseline JPEG entropy decode of one restart interval (T.81 F.2.2).

   georay.util.compiled builds this file once per source hash into the
   user cache directory, and georay/jpeg.py calls huff_interval through
   ctypes.  Symbols are read through 16-bit left-aligned windows of the
   (sym, len) lookup tables of jpeg._huff_lut, concatenated: table t's
   entry for window x is at t * 65536 + x.  A size above 16 (only a
   malformed DHT has one) follows numpy's int64 shift rules, 1 << s being
   0 for s >= 64, as the earlier numpy form of this pass did, so such a
   stream decodes to the same pixels. */
#include <stdint.h>

/* the 32 bits of the stream that start at bit p */
static int64_t win32(const uint8_t *b, int64_t p)
{
    const uint8_t *q = b + (p >> 3);
    uint64_t u = (uint64_t)q[0] << 32 | (uint64_t)q[1] << 24
        | (uint64_t)q[2] << 16 | (uint64_t)q[3] << 8 | q[4];
    return (int64_t)(u >> (8 - (p & 7)) & 0xFFFFFFFF);
}

/* EXTEND (T.81 F.2.2.1) of the s extra bits after an ln-bit code */
static int64_t extend(int64_t w, int ln, int s)
{
    int sh = 32 - ln - s;
    uint64_t one = s < 64 ? (uint64_t)1 << s : 0;
    int64_t v = (w >> (sh < 0 ? 0 : sh > 31 ? 31 : sh)) & (int64_t)(one - 1);
    return v < (int64_t)one >> 1 ? (int64_t)((uint64_t)v - one + 1) : v;
}

/* Decode MCUs [m0, m1) from seg, the interval's unstuffed bytes followed
   by 8 zero bytes (nb = its length + 4), into the int32 coefficient store
   (64 zigzag ints per block).  slots holds 6 ints per block of an MCU:
   DC table offset, AC table offset, component, store row, row step per
   MCU row, row step per MCU column.  The DC predictors start at 0.
   Returns -1 if a symbol would start past the nb bytes, else 0. */
int huff_interval(const uint8_t *seg, int64_t nb, const int16_t *sym,
                  const int8_t *len, const int64_t *slots, int64_t nblk,
                  int64_t mcux, int64_t m0, int64_t m1, int32_t *store)
{
    uint64_t pred[256] = {0};
    int64_t p = 0, npos = 8 * nb;
    for (int64_t m = m0; m < m1; m++) {
        for (const int64_t *s = slots; s < slots + 6 * nblk; s += 6) {
            int32_t *blk = store + 64 * (s[3] + m / mcux * s[4]
                                         + m % mcux * s[5]);
            if (p >= npos)
                return -1;
            int64_t w = win32(seg, p), t = s[0] + (w >> 16);
            pred[s[2] & 255] += (uint64_t)extend(w, len[t], sym[t]);
            blk[0] = (int32_t)pred[s[2] & 255];
            p += len[t] + sym[t];
            for (int k = 1; k < 64;) {
                if (p >= npos)
                    return -1;
                w = win32(seg, p);
                t = s[1] + (w >> 16);
                int rs = sym[t], size = rs & 15;
                p += len[t] + size;
                if (size) {            /* a coefficient after rs >> 4 zeros */
                    k += rs >> 4;
                    if (k < 64)
                        blk[k] = (int32_t)extend(w, len[t], size);
                    k++;
                } else if (rs == 0xF0) /* ZRL: 16 zeros */
                    k += 16;
                else                   /* EOB, invalid or unassigned window */
                    break;
            }
        }
    }
    return 0;
}
