/* P² marker update loop (Jain & Chlamtac, CACM 1985).
 *
 * The compiled twin of P2QuantileEstimator.update in threshold.py.  It
 * performs the same float64 operations in the same order, so built with
 * -ffp-contract=off (never -ffast-math) it leaves the same marker heights
 * and positions bit for bit.  The caller keeps the first five values and
 * their sort in Python and hands over the initialised markers.
 *
 * markers: four runs of five doubles.  The marker heights and positions
 *          (markers[0..4], markers[5..9]) are updated in place.  The
 *          bases and increments (markers[10..14], markers[15..19]) give
 *          marker m's desired position after n observations past the
 *          fifth: bases[m] + n * increments[m].
 * count:   observations folded in before values[0].
 */
#include <stdint.h>

static double parabolic(const double *heights, const double *positions,
                        int marker, double step)
{
    double at = positions[marker];
    double below = positions[marker - 1], above = positions[marker + 1];
    return heights[marker] + step / (above - below) * (
        (at - below + step) * (heights[marker + 1] - heights[marker])
        / (above - at)
        + (above - at - step) * (heights[marker] - heights[marker - 1])
        / (at - below));
}

static double linear(const double *heights, const double *positions,
                     int marker, double step)
{
    int other = marker + (int)step;
    return heights[marker] + step * (
        (heights[other] - heights[marker])
        / (positions[other] - positions[marker]));
}

void p2_update_many(double *markers, int64_t count,
                    const double *values, int64_t n)
{
    double *heights = markers, *positions = markers + 5;
    const double *bases = markers + 10, *increments = markers + 15;

    for (int64_t i = 0; i < n; i++) {
        double value = values[i];
        int cell, marker;
        count++;

        if (value < heights[0]) {
            heights[0] = value;
            cell = 0;
        } else if (value >= heights[4]) {
            heights[4] = value;
            cell = 3;
        } else {
            cell = 0;
            while (value >= heights[cell + 1])
                cell++;
        }

        for (marker = cell + 1; marker < 5; marker++)
            positions[marker] += 1.0;

        double past_five = (double)(count - 5);
        for (marker = 1; marker <= 3; marker++) {
            double at = positions[marker];
            double delta = bases[marker] + past_five * increments[marker] - at;
            double above = positions[marker + 1];
            double below = positions[marker - 1];
            if ((delta >= 1.0 && above - at > 1.0)
                    || (delta <= -1.0 && below - at < -1.0)) {
                double step = delta >= 1.0 ? 1.0 : -1.0;
                double candidate = parabolic(heights, positions, marker, step);
                if (heights[marker - 1] < candidate
                        && candidate < heights[marker + 1])
                    heights[marker] = candidate;
                else
                    heights[marker] = linear(heights, positions, marker, step);
                positions[marker] = at + step;
            }
        }
    }
}
