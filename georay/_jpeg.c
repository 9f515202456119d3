/* Baseline JPEG decode kernels: the entropy decode of one restart
   interval (T.81 F.2.2), then the back end that turns the quantized
   coefficients into pixels: dequantize, inverse DCT and level shift per
   component, then chroma upsampling and YCbCr -> RGB per image.

   georay.util.compiled builds this file once per source hash into the
   user cache directory, and georay/jpeg.py calls huff_interval,
   idct_plane and color_pass through ctypes.  Symbols are read through
   16-bit left-aligned windows of the (sym, len) lookup tables of
   jpeg._huff_lut, concatenated: table t's entry for window x is at
   t * 65536 + x.  A size above 16 (only a malformed DHT has one) follows
   numpy's int64 shift rules, 1 << s being 0 for s >= 64, as the earlier
   numpy form of this pass did, so such a stream decodes to the same
   pixels.

   The back end computes in float32 in a fixed order, so a stream decodes
   to the same pixels on every machine: each IDCT output is a sequential
   sum over k = 0..N-1 of rounded products, and every step is one rounded
   operation.  The compiler must not contract a product and a sum into
   one fused multiply-add (gcc does by default where the CPU has FMA, as
   on aarch64), so contraction is off for this file. */
#pragma GCC optimize("fp-contract=off")
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

/* zigzag position -> raster index of an 8 x 8 block (T.81 Figure A.6) */
static const uint8_t ZZ[64] = {
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

#define VEC4 __attribute__((vector_size(16)))
typedef float v4f VEC4;
typedef int32_t v4i VEC4;

/* one block's dequantized coefficients in raster order, f[8 r + c],
   and a slot f[64] that takes the ones a reduced-size IDCT drops */
typedef union {
    float s[68];
    v4f v[17];
} block;

/* out = m^T f m + 128 for one 8 x 8 block, each sum sequential in k with
   the 8 output lanes j in two 4-lane vectors.  A zero row of f adds only
   zeros in the first product and a zero column of f leaves a zero column
   of t, so both are skipped: s + a * 0 is s for every finite a and s but
   a zero s, whose sign the +128 erases. */
static void idct8(const block *f, const block *m, unsigned rows,
                  unsigned cols, float *out, int64_t stride)
{
    block t;
    for (int i = 0; i < 8; i++) {
        v4f a = {0}, b = {0};
        for (int k = 0; k < 8; k++)
            if (rows >> k & 1) {
                float c = m->s[8 * k + i];
                a = a + c * f->v[2 * k];
                b = b + c * f->v[2 * k + 1];
            }
        t.v[2 * i] = a;
        t.v[2 * i + 1] = b;
    }
    for (int i = 0; i < 8; i++) {
        v4f a = {0}, b = {0};
        for (int k = 0; k < 8; k++)
            if (cols >> k & 1) {
                float c = t.s[8 * i + k];
                a = a + c * m->v[2 * k];
                b = b + c * m->v[2 * k + 1];
            }
        a = a + 128.0f;
        b = b + 128.0f;
        __builtin_memcpy(out + stride * i, &a, sizeof a);
        __builtin_memcpy(out + stride * i + 4, &b, sizeof b);
    }
}

/* idct8 for an n x n block, n < 8 (m is n x n), in scalars */
static void idct_small(const block *f, const float *m, int n,
                       float *out, int64_t stride)
{
    float t[64];
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            float a = 0.0f;
            for (int k = 0; k < n; k++)
                a = a + m[n * k + i] * f->s[8 * k + j];
            t[8 * i + j] = a;
        }
    for (int i = 0; i < n; i++)
        for (int j = 0; j < n; j++) {
            float a = 0.0f;
            for (int k = 0; k < n; k++)
                a = a + t[8 * i + k] * m[n * k + j];
            out[stride * i + j] = a + 128.0f;
        }
}

/* Dequantize, inverse-transform and level-shift the bw x bh blocks of one
   component (zz: 64 zigzag int32 per block, in raster block order) into
   its (bh n) x (bw n) float32 plane, n = 8 / scale.  q is the raster
   quantization table and m the n x n orthonormal DCT matrix.  Only the
   top-left n x n coefficients count; each is (float)z * ((float)q *
   n / 8), the exact float32 product of numpy's astype and multiply
   times n / 8 (a power of two: exact either way). */
void idct_plane(const int32_t *zz, int64_t bw, int64_t bh, const int32_t *q,
                const float *m, int64_t n, float *plane)
{
    int64_t stride = bw * n;
    float qf[64];
    int pos[64];
    block mb = {{0}};
    for (int k = 0; k < 64; k++) {
        int r = ZZ[k] >> 3, c = ZZ[k] & 7;
        qf[k] = (float)q[ZZ[k]] * ((float)n / 8.0f);
        pos[k] = r < n && c < n ? 8 * r + c : 64;
    }
    for (int k = 0; k < n * n; k++)
        mb.s[k] = m[k];
    for (int64_t by = 0; by < bh; by++)
        for (int64_t bx = 0; bx < bw; bx++) {
            const int32_t *z = zz + 64 * (by * bw + bx);
            float *out = plane + by * n * stride + bx * n;
            block f = {{0}};
            for (int k = 0; k < 64; k++)
                f.s[pos[k]] = (float)z[k] * qf[k];
            if (n < 8) {
                idct_small(&f, m, (int)n, out, stride);
                continue;
            }
            /* the rows and columns of f that hold a nonzero */
            const v4f zero = {0};
            v4i lo = {0}, hi = {0};
            unsigned rows = 0, cols = 0;
            for (int r = 0; r < 8; r++) {
                v4i a = f.v[2 * r] != zero, b = f.v[2 * r + 1] != zero;
                v4i ab = a | b;
                rows |= (unsigned)((ab[0] | ab[1] | ab[2] | ab[3]) & 1) << r;
                lo |= a;
                hi |= b;
            }
            for (int c = 0; c < 4; c++)
                cols |= (unsigned)(lo[c] & 1) << c
                    | (unsigned)(hi[c] & 1) << (c + 4);
            idct8(&f, &mb, rows, cols, out, stride);
        }
}

/* n <= 4 floats from p, the rest 0 */
static inline v4f load4(const float *p, int n)
{
    v4f v = {0};
    __builtin_memcpy(&v, p, sizeof(float) * n);
    return v;
}

/* 4 samples rounded half to even (np.rint) and clipped to [0, 255]:
   clipping first gives the same bytes, and for 0 <= v <= 255 adding and
   taking away 2^23 rounds to an integer in the current (nearest-even)
   rounding mode */
static inline v4i to_byte4(v4f v)
{
    const v4f zero = {0}, top = {255.0f, 255.0f, 255.0f, 255.0f},
        big = {8388608.0f, 8388608.0f, 8388608.0f, 8388608.0f};
    v = (v4f)((v4i)v & (v > zero));
    v4i below = v < top;
    v = (v4f)(((v4i)v & below) | ((v4i)top & ~below));
    return __builtin_convertvector((v + big) - big, v4i);
}

/* n <= 4 gray pixels */
static inline void gray4(const float *Y, int n, uint8_t *o)
{
    v4i g = to_byte4(load4(Y, n));
    for (int l = 0; l < n; l++)
        o[l] = (uint8_t)g[l];
}

/* n <= 4 RGB pixels of YCbCr samples: numpy's former float32 pass, one
   rounding per step, cb and cr less 128 first */
static inline void rgb4(const float *Y, const float *Cb, const float *Cr,
                        int n, uint8_t *o)
{
    const float k_r = (float)1.402, k_gb = (float)-0.344136286,
        k_gr = (float)-0.714136286, k_b = (float)1.772;
    v4f y = load4(Y, n), cb = load4(Cb, n) - 128.0f,
        cr = load4(Cr, n) - 128.0f;
    v4i r = to_byte4(cr * k_r + y), g = to_byte4((cb * k_gb + cr * k_gr) + y),
        b = to_byte4(cb * k_b + y);
    for (int l = 0; l < n; l++) {
        o[3 * l] = (uint8_t)r[l];
        o[3 * l + 1] = (uint8_t)g[l];
        o[3 * l + 2] = (uint8_t)b[l];
    }
}

/* Row y of plane p (geometry g, see color_pass) upsampled to w samples:
   p itself when its column factor is 1, else copied into buf. */
static const float *up_row(const float *p, const int64_t *g, int64_t y,
                           int64_t w, float *buf)
{
    const float *src = p + y / g[4] * g[0];
    if (g[5] == 1)
        return src;
    for (int64_t x = 0, sx = 0; x < w; sx++)
        for (int64_t r = 0; r < g[5] && x < w; r++)
            buf[x++] = src[sx];
    return buf;
}

/* The h x w uint8 image of nc = 1 (gray) or 3 (YCbCr) planes, row-major,
   3 bytes per pixel in RGB order for nc = 3.  geom holds 6 ints per
   plane: its stride (columns), its rows, the rows and columns that hold
   image samples (ch <= rows, cw <= stride), and its row and column
   upsampling factors fy, fx: output pixel (y, x) reads sample
   (y / fy, x / fx).  buf holds 3 * w floats.  The YCbCr -> RGB
   conversion is R = cr * 1.402 + y, G = (cb * -0.344136286 +
   cr * -0.714136286) + y, B = cb * 1.772 + y.  Returns -1, reading
   nothing, if nc is not 1 or 3 or a plane's samples, upsampled, do not
   cover the image; else 0. */
int color_pass(int64_t nc, const float *p0, const float *p1,
               const float *p2, const int64_t *geom, int64_t h, int64_t w,
               float *buf, uint8_t *out)
{
    const float *p[3] = {p0, p1, p2};
    if (nc != 1 && nc != 3)
        return -1;
    for (int c = 0; c < nc; c++) {
        const int64_t *g = geom + 6 * c;
        if (g[2] > g[1] || g[3] > g[0] || g[4] < 1 || g[5] < 1
            || g[2] * g[4] < h || g[3] * g[5] < w)
            return -1;
    }
    int64_t w4 = w & ~(int64_t)3;
    for (int64_t y = 0; y < h; y++) {
        const float *Y = up_row(p[0], geom, y, w, buf);
        if (nc == 1) {
            uint8_t *o = out + w * y;
            for (int64_t x = 0; x < w4; x += 4)
                gray4(Y + x, 4, o + x);
            gray4(Y + w4, (int)(w - w4), o + w4);
            continue;
        }
        const float *Cb = up_row(p[1], geom + 6, y, w, buf + w);
        const float *Cr = up_row(p[2], geom + 12, y, w, buf + 2 * w);
        uint8_t *o = out + 3 * w * y;
        for (int64_t x = 0; x < w4; x += 4)
            rgb4(Y + x, Cb + x, Cr + x, 4, o + 3 * x);
        rgb4(Y + w4, Cb + w4, Cr + w4, (int)(w - w4), o + 3 * w4);
    }
    return 0;
}
