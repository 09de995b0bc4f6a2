/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic choice in the simulator draws from an explicitly
 * seeded Rng so that each experiment is reproducible bit-for-bit.
 * The generator is xoshiro256** (Blackman & Vigna), which is fast
 * and has no observable bias for our use (footprint traversal,
 * inter-arrival jitter, workload synthesis).
 *
 * The per-draw members (operator(), below, uniform, chance) are
 * inline: the simulator draws on every fetch block and every data
 * access, so the call overhead is measurable in whole-figure runs.
 * The hot Bernoulli draws go one step further and take an Rng::Odds,
 * a probability resolved once to an integer threshold, so each draw
 * is one integer compare instead of a conversion, a multiply and a
 * floating-point compare.
 */

#ifndef SCHEDTASK_COMMON_RANDOM_HH
#define SCHEDTASK_COMMON_RANDOM_HH

#include <cstdint>

#include "common/logging.hh"

namespace schedtask
{

/**
 * xoshiro256** PRNG with SplitMix64 seeding.
 *
 * Satisfies the UniformRandomBitGenerator concept so it can be used
 * with <random> distributions when needed, though the convenience
 * members below cover the simulator's needs without allocation.
 */
class Rng
{
  public:
    using result_type = std::uint64_t;

    /**
     * A Bernoulli probability resolved for chance(Odds): the integer
     * threshold ceil(p * 2^53) on the 53 bits uniform() keeps.
     * uniform() is k * 2^-53 for the integer k = draw >> 11, and
     * scaling by a power of two is exact, so uniform() < p holds
     * exactly when k < p * 2^53, i.e. when k < ceil(p * 2^53). The
     * draws chance(double) skips stay skipped: p <= 0 and p >= 1 map
     * to two sentinels above every threshold, and a NaN p to
     * threshold 0 (a draw that always fails, as uniform() < NaN).
     */
    class Odds
    {
      public:
        constexpr explicit Odds(double p) : threshold_(thresholdOf(p)) {}

      private:
        friend class Rng;

        /** Sentinels past every real threshold (those are < 2^53). */
        static constexpr std::uint64_t always = std::uint64_t{1} << 53;
        static constexpr std::uint64_t never = always + 1;

        static constexpr std::uint64_t
        thresholdOf(double p)
        {
            if (p <= 0.0)
                return never;
            if (p >= 1.0)
                return always;
            if (p != p)
                return 0;
            const double scaled = p * 0x1.0p53; // exact, in (0, 2^53)
            const auto floor = static_cast<std::uint64_t>(scaled);
            return static_cast<double>(floor) < scaled ? floor + 1 : floor;
        }

        std::uint64_t threshold_;
    };

    /** Seed the generator. Identical seeds yield identical streams. */
    explicit Rng(std::uint64_t seed = 0x5eed'5eed'5eed'5eedULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    /** Next raw 64-bit value. */
    result_type
    operator()()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). bound must be non-zero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        SCHEDTASK_ASSERT(bound != 0, "Rng::below(0)");
        // Lemire-style rejection-free multiply-shift; the bias for
        // our bounds (<< 2^32) is far below anything observable.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>((*this)()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t inRange(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw: true with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /** chance(p) for odds = Odds(p): the same outcome from the same
     *  draw, and no draw where chance(p) makes none. */
    bool
    chance(Odds odds)
    {
        if (odds.threshold_ >= Odds::always)
            return odds.threshold_ == Odds::always;
        return ((*this)() >> 11) < odds.threshold_;
    }

    /**
     * Geometrically distributed positive integer with the given
     * mean (>= 1). Used for inter-arrival times.
     */
    std::uint64_t geometric(double mean);

    /**
     * Task-length draw with the given mean: mean/2 plus a geometric
     * tail of mean mean/2. Run lengths of handlers are far less
     * dispersed than exponential; this keeps the mean while halving
     * the coefficient of variation.
     */
    std::uint64_t taskLength(double mean);

    /**
     * Split off an independent child generator. Children seeded
     * from distinct parent draws have uncorrelated streams.
     */
    Rng split();

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace schedtask

#endif // SCHEDTASK_COMMON_RANDOM_HH
