#include "fault/fault.h"

#include "obs/env.h"

namespace drs::fault {

std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t salt_a, std::uint64_t salt_b)
{
    // splitmix64 finalizer over the xored inputs; the golden-ratio
    // increments keep (seed, 0, 0) from mapping to the raw seed.
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt_a + 1) +
                      0xbf58476d1ce4e5b9ULL * (salt_b + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

FaultConfig
FaultConfig::fromEnvironment()
{
    FaultConfig config;
    obs::envUnsigned("DRS_FAULT_SEED", &config.seed);
    return config;
}

std::uint64_t
watchdogCyclesFromEnvironment()
{
    std::uint64_t cycles = 0;
    obs::envUnsigned("DRS_WATCHDOG", &cycles);
    return cycles;
}

FaultInjector::FaultInjector(const FaultConfig &config, std::uint64_t unit_id)
    : config_(config),
      rng_(mixSeed(config.seed, unit_id), unit_id)
{
}

bool
FaultInjector::roll(double rate)
{
    if (!config_.enabled() || rate <= 0.0)
        return false;
    if (rate >= 1.0)
        return true;
    return static_cast<double>(rng_.nextFloat()) < rate;
}

bool
FaultInjector::rollSwapBitFlip()
{
    if (!roll(config_.swapBitFlipRate))
        return false;
    ++counters_.swapBitFlips;
    return true;
}

bool
FaultInjector::rollCacheTagFlip()
{
    if (!roll(config_.cacheTagFlipRate))
        return false;
    ++counters_.cacheTagFlips;
    return true;
}

std::uint32_t
FaultInjector::rollDramFault()
{
    if (!config_.enabled())
        return 0;
    if (roll(config_.dramDropRate)) {
        ++counters_.dramDropped;
        return config_.dramDropPenaltyCycles;
    }
    if (roll(config_.dramDelayRate)) {
        ++counters_.dramDelayed;
        return 1 + pick(config_.dramDelayCycles);
    }
    return 0;
}

bool
FaultInjector::rollAllocFailure()
{
    if (!roll(config_.allocFailRate))
        return false;
    ++counters_.allocFailures;
    return true;
}

WatchdogTimeout::WatchdogTimeout(std::uint64_t cycle,
                                 std::uint64_t budget_cycles, std::string dump)
    : std::runtime_error("watchdog: no forward progress within " +
                         std::to_string(budget_cycles) +
                         " cycles (at cycle " + std::to_string(cycle) +
                         "); diagnostic dump:\n" + dump),
      cycle_(cycle),
      budget_(budget_cycles),
      dump_(std::move(dump))
{
}

} // namespace drs::fault
