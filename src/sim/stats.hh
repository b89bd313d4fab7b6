/**
 * @file
 * Lightweight statistics containers: scalar counters, distributions,
 * and a periodic time-sampler (used for directory-occupancy traces,
 * Fig. 9c). Components hold concrete Stat members (cheap increments);
 * a StatSet provides named export for reporting.
 */

#ifndef COHESION_SIM_STATS_HH
#define COHESION_SIM_STATS_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/serialize.hh"

namespace sim {

/** A scalar event counter. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { _value += n; }
    void reset() { _value = 0; }
    std::uint64_t value() const { return _value; }

    void snapshot(Archive &ar) { ar(_value); }

  private:
    std::uint64_t _value = 0;
};

/**
 * Running min/mean/max/variance over observed samples. The mean and
 * variance use Welford's online recurrence, so one pass is numerically
 * stable and reset() leaves no residue. An empty (or freshly reset)
 * distribution reports zero for every moment; a single sample has zero
 * variance. variance() is the population variance (divide by N).
 *
 * percentile() is served from a bounded reservoir: exact while the
 * sample count fits (reservoirSize), then Vitter's algorithm R driven
 * by a fixed-seed LCG — deterministic for a given sample sequence, so
 * percentile columns stay byte-identical across reruns and --jobs
 * values. Storage is a fixed array: no allocation on the sample path.
 */
class Distribution
{
  public:
    static constexpr std::uint32_t reservoirSize = 512;

    void
    sample(double v)
    {
        if (_count == 0) {
            _min = _max = v;
        } else {
            _min = std::min(_min, v);
            _max = std::max(_max, v);
        }
        _sum += v;
        ++_count;
        double delta = v - _mean;
        _mean += delta / _count;
        _m2 += delta * (v - _mean);

        if (_count <= reservoirSize) {
            _reservoir[_count - 1] = v;
        } else {
            _lcg = _lcg * 6364136223846793005ull + 1442695040888963407ull;
            // Top bits of the LCG are the good ones; map onto [0,count).
            std::uint64_t slot =
                static_cast<std::uint64_t>((_lcg >> 11) % _count);
            if (slot < reservoirSize)
                _reservoir[static_cast<std::uint32_t>(slot)] = v;
        }
    }

    void reset() { *this = Distribution(); }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _min; }
    double max() const { return _max; }
    double mean() const { return _count ? _mean : 0.0; }
    double variance() const { return _count ? _m2 / _count : 0.0; }
    double stddev() const { return std::sqrt(variance()); }

    /**
     * Nearest-rank percentile for @p p in [0,100], exact when at most
     * reservoirSize samples were observed and a deterministic estimate
     * beyond that. Empty distributions report 0.
     */
    double
    percentile(double p) const
    {
        std::uint32_t n = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(_count, reservoirSize));
        if (n == 0)
            return 0.0;
        std::array<double, reservoirSize> sorted;
        std::copy(_reservoir.begin(), _reservoir.begin() + n,
                  sorted.begin());
        std::sort(sorted.begin(), sorted.begin() + n);
        double clamped = std::clamp(p, 0.0, 100.0);
        std::uint32_t rank = static_cast<std::uint32_t>(
            std::ceil(clamped / 100.0 * n));
        return sorted[rank == 0 ? 0 : rank - 1];
    }

    double p50() const { return percentile(50); }
    double p95() const { return percentile(95); }
    double p99() const { return percentile(99); }

    /** The reservoir and its LCG serialize too: percentile columns in
     *  stat exports must be byte-identical after a restore. */
    void
    snapshot(Archive &ar)
    {
        ar(_count);
        ar(_sum);
        ar(_min);
        ar(_max);
        ar(_mean);
        ar(_m2);
        ar(_lcg);
        ar(_reservoir);
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0;
    std::uint64_t _lcg = 0x9E3779B97F4A7C15ull;
    std::array<double, reservoirSize> _reservoir{};
};

/**
 * Log2-bucketed histogram of non-negative integer samples (message
 * latencies, queue depths). Bucket 0 holds the value 0; bucket i
 * holds [2^(i-1), 2^i - 1]; the last bucket absorbs everything above.
 * Constant memory, O(1) sampling — safe on hot paths.
 */
class Histogram
{
  public:
    static constexpr unsigned numBuckets = 33;

    static unsigned
    bucketOf(std::uint64_t v)
    {
        unsigned w = static_cast<unsigned>(std::bit_width(v));
        return w < numBuckets ? w : numBuckets - 1;
    }

    /** Lowest value accounted to bucket @p b. */
    static std::uint64_t
    bucketLow(unsigned b)
    {
        return b == 0 ? 0 : std::uint64_t(1) << (b - 1);
    }

    /** Highest value accounted to bucket @p b (inclusive). */
    static std::uint64_t
    bucketHigh(unsigned b)
    {
        if (b == 0)
            return 0;
        if (b >= numBuckets - 1)
            return ~std::uint64_t(0);
        return (std::uint64_t(1) << b) - 1;
    }

    void
    sample(std::uint64_t v, std::uint64_t weight = 1)
    {
        if (weight == 0)
            return;
        if (_count == 0) {
            _min = _max = v;
        } else {
            _min = std::min(_min, v);
            _max = std::max(_max, v);
        }
        _buckets[bucketOf(v)] += weight;
        _count += weight;
        _sum += v * weight;
    }

    void reset() { *this = Histogram(); }

    void
    merge(const Histogram &other)
    {
        if (other._count == 0)
            return;
        if (_count == 0) {
            _min = other._min;
            _max = other._max;
        } else {
            _min = std::min(_min, other._min);
            _max = std::max(_max, other._max);
        }
        for (unsigned i = 0; i < numBuckets; ++i)
            _buckets[i] += other._buckets[i];
        _count += other._count;
        _sum += other._sum;
    }

    std::uint64_t count() const { return _count; }
    std::uint64_t sum() const { return _sum; }
    std::uint64_t min() const { return _min; }
    std::uint64_t max() const { return _max; }
    double mean() const { return _count ? double(_sum) / _count : 0.0; }
    std::uint64_t bucket(unsigned b) const { return _buckets.at(b); }

    /**
     * Percentile estimate for @p p in [0,100]: find the bucket holding
     * the nearest-rank sample and interpolate linearly inside it,
     * clamped to the observed min/max. Exact bucket membership makes
     * this deterministic (no sampling), at log2-bucket resolution.
     */
    double
    percentile(double p) const
    {
        if (_count == 0)
            return 0.0;
        double clamped = std::clamp(p, 0.0, 100.0);
        std::uint64_t rank = static_cast<std::uint64_t>(
            std::ceil(clamped / 100.0 * _count));
        if (rank == 0)
            rank = 1;
        std::uint64_t seen = 0;
        for (unsigned b = 0; b < numBuckets; ++b) {
            if (seen + _buckets[b] < rank) {
                seen += _buckets[b];
                continue;
            }
            double lo = static_cast<double>(
                std::max(bucketLow(b), _min));
            double hi = static_cast<double>(
                std::min(bucketHigh(b), _max));
            double frac = _buckets[b] <= 1
                              ? 1.0
                              : double(rank - seen) / double(_buckets[b]);
            return lo + (hi - lo) * frac;
        }
        return static_cast<double>(_max);
    }

    double p50() const { return percentile(50); }
    double p95() const { return percentile(95); }
    double p99() const { return percentile(99); }

    void
    snapshot(Archive &ar)
    {
        ar(_buckets);
        ar(_count);
        ar(_sum);
        ar(_min);
        ar(_max);
    }

  private:
    std::array<std::uint64_t, numBuckets> _buckets{};
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = 0;
    std::uint64_t _max = 0;
};

/**
 * Collects (time, value) samples at a fixed period; reports the
 * time-average and the maximum, matching the paper's "sampled every
 * 1000 cycles" methodology.
 */
class TimeSampler
{
  public:
    explicit TimeSampler(std::uint64_t period = 1000) : _period(period) {}

    std::uint64_t period() const { return _period; }

    void sample(double v) { _dist.sample(v); }

    double timeAverage() const { return _dist.mean(); }
    double maximum() const { return _dist.max(); }
    std::uint64_t samples() const { return _dist.count(); }
    void reset() { _dist.reset(); }

    void snapshot(Archive &ar) { ar(_dist); }

  private:
    std::uint64_t _period;
    Distribution _dist;
};

/** A named bag of scalar values for uniform reporting/CSV export. */
class StatSet
{
  public:
    void set(const std::string &name, double v) { _values[name] = v; }
    void add(const std::string &name, double v) { _values[name] += v; }

    double
    get(const std::string &name) const
    {
        auto it = _values.find(name);
        return it == _values.end() ? 0.0 : it->second;
    }

    bool has(const std::string &name) const { return _values.count(name); }

    const std::map<std::string, double> &values() const { return _values; }

    /** Merge (sum) another set into this one. */
    void
    merge(const StatSet &other)
    {
        for (const auto &[k, v] : other.values())
            add(k, v);
    }

  private:
    std::map<std::string, double> _values;
};

} // namespace sim

#endif // COHESION_SIM_STATS_HH
