/*
 * The UCNN segment-scan kernel (see repro/engine/executor.py).
 *
 * For every window x (a row of `windows`) it streams the gathered
 * activations into a running sum, keeping each prefix
 * S[i] = x[gather[0]] + ... + x[gather[i]], and folds each run r of
 * telescoped terms straight into its output row:
 *
 *     out[rows[r]][x] = sum over t in run r of coefs[t] * S[cols[t]]
 *
 * Windows go four at a time, so their four serial prefix chains
 * overlap; the scratch holds the four prefixes interleaved.  All
 * arithmetic is on uint64_t, which wraps mod 2**64 exactly like numpy's
 * int64 (signed overflow would be undefined behaviour).  The caller
 * validates every shape, stride and index.
 */
#include <stdint.h>
#include <stdlib.h>

#define LANES 4

static inline __attribute__((always_inline)) void scan_lanes(
    const int lanes, const uint64_t *x, int64_t width,
    const int64_t *gather, int64_t entries,
    const int64_t *cols, const uint64_t *coefs,
    const int64_t *run_starts, const int64_t *rows, int64_t runs, int64_t terms,
    uint64_t *out, int64_t out_stride, uint64_t *prefix)
{
    uint64_t s[LANES] = {0};
    for (int64_t i = 0; i < entries; i++) {
        const int64_t g = gather[i];
        for (int j = 0; j < lanes; j++) {
            s[j] += x[j * width + g];
            prefix[i * lanes + j] = s[j];
        }
    }
    for (int64_t r = 0; r < runs; r++) {
        const int64_t end = r + 1 < runs ? run_starts[r + 1] : terms;
        uint64_t acc[LANES] = {0};
        for (int64_t t = run_starts[r]; t < end; t++) {
            const uint64_t c = coefs[t];
            const uint64_t *p = prefix + cols[t] * lanes;
            for (int j = 0; j < lanes; j++)
                acc[j] += c * p[j];
        }
        uint64_t *o = out + rows[r] * out_stride;
        for (int j = 0; j < lanes; j++)
            o[j] = acc[j];
    }
}

/* Returns 0, or -1 if the prefix scratch cannot be allocated. */
int ucnn_scan(
    const uint64_t *windows, int64_t n, int64_t width,
    const int64_t *gather, int64_t entries,
    const int64_t *cols, const uint64_t *coefs,
    const int64_t *run_starts, const int64_t *rows, int64_t runs, int64_t terms,
    uint64_t *out, int64_t out_stride)
{
    uint64_t *prefix = malloc((size_t)entries * LANES * sizeof *prefix);
    if (prefix == NULL)
        return -1;
    int64_t w = 0;
    for (; w + LANES <= n; w += LANES)
        scan_lanes(LANES, windows + w * width, width, gather, entries, cols, coefs,
                   run_starts, rows, runs, terms, out + w, out_stride, prefix);
    for (; w < n; w++)
        scan_lanes(1, windows + w * width, width, gather, entries, cols, coefs,
                   run_starts, rows, runs, terms, out + w, out_stride, prefix);
    free(prefix);
    return 0;
}
