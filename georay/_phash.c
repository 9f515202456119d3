/* The 32 x 32 bin sums of one uint8 image, the box resize of the pHash.

   georay.util.compiled builds this file once per source hash into the
   user cache directory, and georay/codecs.py calls phash_bins through
   ctypes.  Source row y of an h-row image falls in bin y * 32 / h
   (floor), and column x of a w-column image in bin x * 32 / w, so bin j
   holds rows ceil(j * h / 32) up to ceil((j + 1) * h / 32) - 1, likewise
   columns.  A side shorter than 32 leaves bins empty: an empty bin has sum
   0 and count 0, the rule every stored phash was computed under.  The
   sums are exact integers, each over a bin's pixels and all their bands. */
#include <stdint.h>

/* img: an h x w x b image (b = 1 for gray), row_stride, px_stride and
   band_stride bytes between rows, pixels and bands (any sign); writes the
   bin sums to out[0 : 1024] and the pixel counts to out[1024 : 2048], each
   row-major by (row bin, column bin).  The image is read once, row by
   row. */
void phash_bins(const uint8_t *img, int64_t h, int64_t w, int64_t b,
                int64_t row_stride, int64_t px_stride, int64_t band_stride,
                int64_t *out)
{
    int64_t *sums = out, *cnt = out + 32 * 32;
    int64_t y0[33], x0[33];
    for (int64_t j = 0; j <= 32; j++) {
        y0[j] = (j * h + 31) / 32;
        x0[j] = (j * w + 31) / 32;
    }
    for (int i = 0; i < 32; i++) {
        int64_t *s = sums + 32 * i;
        for (int j = 0; j < 32; j++) {
            s[j] = 0;
            cnt[32 * i + j] = (y0[i + 1] - y0[i]) * (x0[j + 1] - x0[j]);
        }
        for (int64_t y = y0[i]; y < y0[i + 1]; y++) {
            const uint8_t *row = img + y * row_stride;
            for (int j = 0; j < 32; j++) {
                uint64_t acc = 0;
                for (int64_t x = x0[j]; x < x0[j + 1]; x++) {
                    const uint8_t *p = row + x * px_stride;
                    for (int64_t k = 0; k < b; k++)
                        acc += p[k * band_stride];
                }
                s[j] += (int64_t)acc;
            }
        }
    }
}
