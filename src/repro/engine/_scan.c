/*
 * The UCNN segment-scan kernel (see repro/engine/executor.py).
 *
 * Window w starts at x = src + bases[w], and its i-th gather entry
 * sits taps[i] elements further on, so the kernel reads activations
 * where they lie, the way the paper's input indirection table
 * addresses the input buffer; no window is unrolled.  Per window it
 * streams those activations into a running sum, keeping each prefix
 * S[i] = x[taps[0]] + ... + x[taps[i]], and folds each run r of
 * telescoped terms straight into its output row:
 *
 *     out[rows[r]][w] = sum over t in run r of coefs[t] * S[cols[t]]
 *
 * Windows go four at a time, so their four serial prefix chains
 * overlap; each lane has its own base, so a block may straddle output
 * rows and images, and the scratch holds the four prefixes interleaved.
 * All arithmetic is on uint64_t, which wraps mod 2**64 exactly like
 * numpy's int64 (signed overflow would be undefined behaviour).  The
 * caller validates every shape and offset.
 */
#include <stdint.h>
#include <stdlib.h>

#define LANES 4

static inline __attribute__((always_inline)) void scan_lanes(
    const int lanes, const uint64_t *src, const int64_t *bases,
    const int64_t *taps, int64_t entries,
    const int64_t *cols, const uint64_t *coefs,
    const int64_t *run_starts, const int64_t *rows, int64_t runs, int64_t terms,
    uint64_t *out, int64_t out_stride, uint64_t *prefix)
{
    const uint64_t *x[LANES];
    uint64_t s[LANES] = {0};
    for (int j = 0; j < lanes; j++)
        x[j] = src + bases[j];
    for (int64_t i = 0; i < entries; i++) {
        const int64_t t = taps[i];
        for (int j = 0; j < lanes; j++) {
            s[j] += x[j][t];
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
    const uint64_t *src, const int64_t *bases, int64_t n,
    const int64_t *taps, int64_t entries,
    const int64_t *cols, const uint64_t *coefs,
    const int64_t *run_starts, const int64_t *rows, int64_t runs, int64_t terms,
    uint64_t *out, int64_t out_stride)
{
    uint64_t *prefix = malloc((size_t)entries * LANES * sizeof *prefix);
    if (prefix == NULL)
        return -1;
    int64_t w = 0;
    for (; w + LANES <= n; w += LANES)
        scan_lanes(LANES, src, bases + w, taps, entries, cols, coefs,
                   run_starts, rows, runs, terms, out + w, out_stride, prefix);
    for (; w < n; w++)
        scan_lanes(1, src, bases + w, taps, entries, cols, coefs,
                   run_starts, rows, runs, terms, out + w, out_stride, prefix);
    free(prefix);
    return 0;
}
