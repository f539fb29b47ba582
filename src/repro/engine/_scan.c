/*
 * The UCNN segment-scan kernel (see repro/engine/executor.py).
 *
 * Window w starts at x = src + bases[w], and its i-th gather entry
 * sits taps[i] elements further on, so the kernel reads activations
 * where they lie, the way the paper's input indirection table
 * addresses the input buffer; no window is unrolled.  Like the paper's
 * PE, it walks one filter group's table at a time: per window it
 * streams the group's activations into a running sum that restarts at
 * the group, keeping each prefix S[i] of the group's first i + 1
 * entries, and folds each of the group's runs r of telescoped terms
 * straight into its output row:
 *
 *     out[rows[r]][w] = sum over t in run r of coefs[t] * S[cols[t]]
 *
 * group_entries, group_runs and run_starts are fenceposts: group g
 * holds entries group_entries[g] .. group_entries[g + 1] - 1 (taps[0]
 * is entry group_entries[0]) and runs group_runs[g] ..
 * group_runs[g + 1] - 1, and run r holds terms run_starts[r] ..
 * run_starts[r + 1] - 1.  Windows go four at a time, so their four
 * serial prefix chains overlap; each lane has its own base, so a block
 * may straddle output rows and images, and the scratch holds the four
 * prefixes of the widest group interleaved.  All arithmetic is on
 * uint64_t, which wraps mod 2**64 exactly like numpy's int64 (signed
 * overflow would be undefined behaviour).  The caller validates every
 * shape and offset, and that every column lies inside its run's group.
 */
#include <stdint.h>
#include <stdlib.h>

#define LANES 4

static inline __attribute__((always_inline)) void scan_lanes(
    const int lanes, const uint64_t *src, const int64_t *bases,
    const int64_t *taps, const int64_t *group_entries,
    const int64_t *group_runs, int64_t groups,
    const int64_t *cols, const uint64_t *coefs,
    const int64_t *run_starts, const int64_t *rows,
    uint64_t *out, int64_t out_stride, uint64_t *prefix)
{
    const uint64_t *x[LANES];
    for (int j = 0; j < lanes; j++)
        x[j] = src + bases[j];
    for (int64_t g = 0; g < groups; g++) {
        const int64_t *t = taps + (group_entries[g] - group_entries[0]);
        const int64_t entries = group_entries[g + 1] - group_entries[g];
        uint64_t s[LANES] = {0};
        for (int64_t i = 0; i < entries; i++) {
            const int64_t tap = t[i];
            for (int j = 0; j < lanes; j++) {
                s[j] += x[j][tap];
                prefix[i * lanes + j] = s[j];
            }
        }
        for (int64_t r = group_runs[g]; r < group_runs[g + 1]; r++) {
            uint64_t acc[LANES] = {0};
            for (int64_t k = run_starts[r]; k < run_starts[r + 1]; k++) {
                const uint64_t c = coefs[k];
                const uint64_t *p = prefix + cols[k] * lanes;
                for (int j = 0; j < lanes; j++)
                    acc[j] += c * p[j];
            }
            uint64_t *o = out + rows[r] * out_stride;
            for (int j = 0; j < lanes; j++)
                o[j] = acc[j];
        }
    }
}

/* Returns 0, or -1 if the prefix scratch cannot be allocated. */
int ucnn_scan(
    const uint64_t *src, const int64_t *bases, int64_t n,
    const int64_t *taps, const int64_t *group_entries,
    const int64_t *group_runs, int64_t groups,
    const int64_t *cols, const uint64_t *coefs,
    const int64_t *run_starts, const int64_t *rows,
    uint64_t *out, int64_t out_stride)
{
    int64_t widest = 1;
    for (int64_t g = 0; g < groups; g++)
        if (group_entries[g + 1] - group_entries[g] > widest)
            widest = group_entries[g + 1] - group_entries[g];
    uint64_t *prefix = malloc((size_t)widest * LANES * sizeof *prefix);
    if (prefix == NULL)
        return -1;
    int64_t w = 0;
    for (; w + LANES <= n; w += LANES)
        scan_lanes(LANES, src, bases + w, taps, group_entries, group_runs, groups,
                   cols, coefs, run_starts, rows, out + w, out_stride, prefix);
    for (; w < n; w++)
        scan_lanes(1, src, bases + w, taps, group_entries, group_runs, groups,
                   cols, coefs, run_starts, rows, out + w, out_stride, prefix);
    free(prefix);
    return 0;
}
