/* Prime-LUT checksums of the tile fragments of one image.

   georay.util.compiled builds this file once per source hash into the
   user cache directory, and georay/tiles.py calls frag_sums through
   ctypes.  A fragment is the image window (rx, ry, rxs, rys)
   nearest-resampled to wxs x wys and placed at (wx, wy) of a 256 x 256
   tile; its checksum is the sum over the fragment's pixels and their
   first 3 bands of pixel % P[(256 * row + col) % 11], the LUT of
   georay.stats.gdal_checksum, masked to 16 bits.  256 = 3 (mod 11), so
   tile row r and column c pick P[(3 r + c) % 11].  Destination row r reads
   source row (2 r + 1) * rys / (2 * wys), tiles.resample_nearest's index
   in exact integers; at 1:1 it is r, so a 1:1 window is summed as is. */
#include <stdint.h>

/* img: an h x w image, row_stride bytes per row and px_stride bytes per
   pixel; plan rows: img, tile_x, tile_y, rx, ry, rxs, rys, wx, wy, wxs,
   wys; mod[m * 256 + v] = v % P[m].  Returns 0, or -1 when a row's source
   window leaves the image or its destination window leaves the tile. */
int frag_sums(const uint8_t *img, int64_t h, int64_t w, int64_t row_stride,
              int64_t px_stride, const int64_t *plan, int64_t n,
              const uint8_t *mod, int64_t *out)
{
    int64_t xoff[256];
    int xcls[256];
    for (int64_t k = 0; k < n; k++) {
        const int64_t *p = plan + 11 * k;
        int64_t rx = p[3], ry = p[4], rxs = p[5], rys = p[6];
        int64_t wx = p[7], wy = p[8], wxs = p[9], wys = p[10];
        if (rx < 0 || ry < 0 || rxs <= 0 || rys <= 0 || rx + rxs > w
            || ry + rys > h || wx < 0 || wy < 0 || wxs < 0 || wys < 0
            || wx + wxs > 256 || wy + wys > 256)
            return -1;
        for (int64_t c = 0; c < wxs; c++) {
            xoff[c] = (rx + (2 * c + 1) * rxs / (2 * wxs)) * px_stride;
            xcls[c] = (int)((wx + c) % 11);
        }
        uint64_t sum = 0;
        for (int64_t r = 0; r < wys; r++) {
            const uint8_t *row = img + (ry + (2 * r + 1) * rys / (2 * wys))
                * row_stride;
            int rcls = (int)(3 * (wy + r) % 11);
            uint32_t acc = 0;
            for (int64_t c = 0; c < wxs; c++) {
                int m = rcls + xcls[c];
                const uint8_t *lut = mod + 256 * (m < 11 ? m : m - 11);
                const uint8_t *q = row + xoff[c];
                acc += lut[q[0]] + lut[q[1]] + lut[q[2]];
            }
            sum += acc;
        }
        out[k] = (int64_t)(sum & 0xFFFF);
    }
    return 0;
}
