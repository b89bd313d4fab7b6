/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256**). All
 * workload generation uses this so runs are reproducible bit-for-bit
 * across hosts; std::mt19937 is avoided because libstdc++ does not
 * guarantee distribution stability.
 */

#ifndef COHESION_SIM_RANDOM_HH
#define COHESION_SIM_RANDOM_HH

#include <cstdint>
#include <string_view>

#include "sim/serialize.hh"

namespace sim {

/** xoshiro256** by Blackman & Vigna (public domain algorithm). */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL)
    {
        // SplitMix64 seeding.
        std::uint64_t x = seed;
        for (auto &word : _state) {
            x += 0x9E3779B97F4A7C15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
            z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
            word = z ^ (z >> 31);
        }
    }

    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(_state[1] * 5, 7) * 9;
        const std::uint64_t t = _state[1] << 17;
        _state[2] ^= _state[0];
        _state[3] ^= _state[1];
        _state[1] ^= _state[2];
        _state[0] ^= _state[3];
        _state[2] ^= t;
        _state[3] = rotl(_state[3], 45);
        return result;
    }

    /**
     * Uniform integer in [0, bound). @p bound must be nonzero.
     *
     * Lemire's multiply-shift with rejection: `next() % bound` maps
     * the 2^64 raw values onto the bound unevenly (the low
     * 2^64 mod bound residues appear once more often than the rest),
     * so e.g. address-stream generators favored low line numbers.
     * Here the draw selects a 2^64-wide slice [i*bound, (i+1)*bound)
     * via the high word of a 128-bit product and rejects the draws
     * that fall in the truncated final slice, giving every residue
     * identical probability while consuming one draw in the common
     * case.
     */
    std::uint64_t
    below(std::uint64_t bound)
    {
        std::uint64_t x = next();
        unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < bound) {
            std::uint64_t threshold = (0 - bound) % bound;
            while (lo < threshold) {
                x = next();
                m = static_cast<unsigned __int128>(x) * bound;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Uniform double in [lo, hi). */
    double
    range(double lo, double hi)
    {
        return lo + uniform() * (hi - lo);
    }

    /** Snapshot hook: the raw generator state. */
    void
    snapshot(Archive &ar)
    {
        for (std::uint64_t &w : _state)
            ar(w);
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t _state[4];
};

/**
 * Derive a named sub-stream seed from one master seed. The whole
 * simulator draws from a single documented seed chain rooted at the
 * workload seed (--seed): kernel setup uses the master directly, the
 * fault injector uses deriveSeed(master, "fault"), and any future
 * consumer should mint its own stream name here rather than invent a
 * second CLI knob. Stream names are hashed (FNV-1a) and mixed with the
 * master through the SplitMix64 finalizer, so distinct names yield
 * statistically independent streams while staying reproducible.
 */
inline std::uint64_t
deriveSeed(std::uint64_t master, std::string_view stream)
{
    std::uint64_t h = 0xCBF29CE484222325ULL; // FNV-1a offset basis
    for (char c : stream) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ULL;
    }
    std::uint64_t z = master + 0x9E3779B97F4A7C15ULL * (h | 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace sim

#endif // COHESION_SIM_RANDOM_HH
