/* QuantileFilter's per-chunk work: hashing (qf_hash) and Algorithm 2
 * (qf_process).
 *
 * qf_hash hashes a chunk of integer keys and float64 values exactly as
 * BatchQuantileFilter._chunk_parts in vectorized.py does, in stream
 * order.
 *
 * keys:    n integer keys as 64-bit two's complement (the canonical key
 *          is mix64 of them, as canonical_keys computes it).
 * fp_seed, fp_mask: the FingerprintHasher's seed and bit mask.
 * bucket_seed, num_buckets: the candidate-bucket hash.
 * threshold, positive_weight: an item weighs positive_weight when its
 *          value exceeds threshold, -1 otherwise (compared in float64).
 * fps, buckets, weights: the n fingerprints, buckets and weights.
 *
 * qf_process runs Algorithm 2 over one chunk, in stream order: the
 * compiled twin of BatchQuantileFilter._scalar_pass in vectorized.py
 * with the comparative strategy: every item takes the per-item branch
 * (candidate hit, vacancy, vague insert with the fused median estimate,
 * vague report, candidate election).  It performs the same float64
 * operations in the same order, so built with -ffp-contract=off (never
 * -ffast-math) it leaves the same planes bit for bit.  The median comes
 * from a stable insertion sort: equal estimates, a -0.0 and a 0.0 among
 * them, keep their row order, as they do under Python's list.sort.
 *
 * fps, buckets, weights: the chunk's n fingerprints, candidate buckets
 *          and item weights (qf_hash's output).
 * cand_fps, cand_qws: the (num_buckets, bucket_size) candidate planes.
 * rows:    the (depth, width) vague rows.
 * row_seeds, sign_seeds: the per-row seeds of the column and sign hashes.
 * out:     five tallies (hits, vague inserts, swaps, candidate reports,
 *          vague reports), added to, then the index of every reporting
 *          item in stream order.  The caller zeroes the tallies; the
 *          index list starts at out[5 + tallies[3] + tallies[4]].
 */
#include <stdint.h>

enum { HITS, VAGUE_INSERTS, SWAPS, CANDIDATE_REPORTS, VAGUE_REPORTS,
       TALLIES };

static uint64_t mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

static int64_t bucket_of(uint64_t canon, uint64_t bucket_seed,
                         int64_t num_buckets)
{
    return (int64_t)(mix64(canon ^ bucket_seed) % (uint64_t)num_buckets);
}

void qf_hash(const uint64_t *keys, const double *values, int64_t n,
             uint64_t fp_seed, uint64_t fp_mask, uint64_t bucket_seed,
             int64_t num_buckets, double threshold, double positive_weight,
             uint64_t *fps, int64_t *buckets, double *weights)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t canon = mix64(keys[i]);
        uint64_t fp = mix64(canon ^ fp_seed) & fp_mask;
        fps[i] = fp ? fp : 1;
        buckets[i] = bucket_of(canon, bucket_seed, num_buckets);
        weights[i] = values[i] > threshold ? positive_weight : -1.0;
    }
}

/* The vague cell (flat index into rows) and sign of a (fingerprint,
 * bucket) pair in every row: vague_key, HashFamily and SignHashFamily. */
static void address(uint64_t fp, int64_t bucket, int64_t depth,
                    int64_t width, const uint64_t *row_seeds,
                    const uint64_t *sign_seeds, int64_t *cells,
                    double *signs)
{
    uint64_t vkey = mix64(((uint64_t)bucket << 20) ^ fp);
    for (int64_t r = 0; r < depth; r++) {
        cells[r] = r * width
            + (int64_t)(mix64(vkey ^ row_seeds[r]) % (uint64_t)width);
        signs[r] = (mix64(vkey ^ sign_seeds[r]) & 1) ? 1.0 : -1.0;
    }
}

static void report(int64_t *out, int64_t item, int source)
{
    out[TALLIES + out[CANDIDATE_REPORTS] + out[VAGUE_REPORTS]] = item;
    out[source]++;
}

void qf_process(const uint64_t *fps, const int64_t *buckets,
                const double *weights, int64_t n, uint64_t *cand_fps,
                double *cand_qws, int64_t bucket_size, double *rows,
                int64_t depth, int64_t width, const uint64_t *row_seeds,
                const uint64_t *sign_seeds, double report_threshold,
                int64_t *out)
{
    int64_t cells[depth], evicted_cells[depth];
    double signs[depth], evicted_signs[depth], ests[depth];

    for (int64_t i = 0; i < n; i++) {
        uint64_t fp = fps[i];
        int64_t bucket = buckets[i];
        double weight = weights[i];
        uint64_t *bucket_fps = cand_fps + bucket * bucket_size;
        double *bucket_qws = cand_qws + bucket * bucket_size;
        int64_t slot, free_slot = -1;

        /* Case 1: candidate hit. */
        for (slot = 0; slot < bucket_size; slot++) {
            if (bucket_fps[slot] == fp)
                break;
            if (bucket_fps[slot] == 0 && free_slot < 0)
                free_slot = slot;
        }
        if (slot < bucket_size) {
            double new_qw = bucket_qws[slot] + weight;
            out[HITS]++;
            if (new_qw >= report_threshold) {
                bucket_qws[slot] = 0.0;
                report(out, i, CANDIDATE_REPORTS);
            } else {
                bucket_qws[slot] = new_qw;
            }
            continue;
        }

        /* Case 2: vacancy. */
        if (free_slot >= 0) {
            bucket_fps[free_slot] = fp;
            if (weight >= report_threshold) {
                bucket_qws[free_slot] = 0.0;
                report(out, i, CANDIDATE_REPORTS);
            } else {
                bucket_qws[free_slot] = weight;
            }
            continue;
        }

        /* Case 3: vague part (fused insert + median estimate). */
        out[VAGUE_INSERTS]++;
        address(fp, bucket, depth, width, row_seeds, sign_seeds, cells,
                signs);
        for (int64_t r = 0; r < depth; r++) {
            rows[cells[r]] += signs[r] * weight;
            double est = signs[r] * rows[cells[r]];
            int64_t j = r;
            while (j > 0 && est < ests[j - 1]) {
                ests[j] = ests[j - 1];
                j--;
            }
            ests[j] = est;
        }
        double estimate = depth % 2 ? ests[depth / 2]
            : 0.5 * (ests[depth / 2 - 1] + ests[depth / 2]);

        if (estimate >= report_threshold) {
            for (int64_t r = 0; r < depth; r++)
                rows[cells[r]] -= signs[r] * estimate;
            report(out, i, VAGUE_REPORTS);
            estimate = 0.0;
        }

        /* Comparative election against the bucket minimum. */
        int64_t min_slot = 0;
        double min_qw = bucket_qws[0];
        for (slot = 1; slot < bucket_size; slot++) {
            if (bucket_qws[slot] < min_qw) {
                min_qw = bucket_qws[slot];
                min_slot = slot;
            }
        }
        if (estimate > min_qw) {
            out[SWAPS]++;
            address(bucket_fps[min_slot], bucket, depth, width, row_seeds,
                    sign_seeds, evicted_cells, evicted_signs);
            for (int64_t r = 0; r < depth; r++)
                rows[evicted_cells[r]] += evicted_signs[r] * min_qw;
            if (estimate != 0.0)
                for (int64_t r = 0; r < depth; r++)
                    rows[cells[r]] -= signs[r] * estimate;
            bucket_fps[min_slot] = fp;
            bucket_qws[min_slot] = estimate;
        }
    }
}
