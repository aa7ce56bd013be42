#include "fleet/chaos.h"

#include "fault/fault.h"
#include "obs/env.h"

namespace drs::fleet {

namespace {

/** Salt so chaos rolls never correlate with fault-injection seeds. */
constexpr std::uint64_t kChaosRollSalt = 0x6368616f736b696cULL;
/** Salt for the independent kill-delay draw. */
constexpr std::uint64_t kChaosDelaySalt = 0x6368616f73646c79ULL;

/** Uniform double in [0, 1) from the top 53 bits of a mixed seed. */
double
unitDraw(std::uint64_t seed, std::size_t job, int dispatch)
{
    const std::uint64_t mixed = fault::mixSeed(seed, job, dispatch);
    return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

} // namespace

ChaosConfig
ChaosConfig::fromEnvironment()
{
    ChaosConfig config;
    obs::envUnsigned("DRS_FLEET_CHAOS", &config.seed);
    obs::envReal("DRS_FLEET_CHAOS_RATE", &config.killRate, 0.0, 1.0);
    obs::envInt("DRS_FLEET_CHAOS_KILLS", &config.maxKillDispatches, 0,
                1'000'000);
    return config;
}

ChaosPlan
chaosPlanFor(const ChaosConfig &config, std::size_t job, int dispatch)
{
    ChaosPlan plan;
    if (config.hangEveryClaim) {
        plan.hang = true;
        return plan;
    }
    if (config.killJobEveryDispatch >= 0 &&
        job == static_cast<std::size_t>(config.killJobEveryDispatch)) {
        plan.kill = true;
        return plan;
    }
    if (config.hangJobFirstDispatch >= 0 &&
        job == static_cast<std::size_t>(config.hangJobFirstDispatch) &&
        dispatch == 1) {
        plan.hang = true;
        return plan;
    }
    if (config.seed == 0 || dispatch > config.maxKillDispatches)
        return plan;
    const double roll =
        unitDraw(config.seed ^ kChaosRollSalt, job, dispatch);
    if (roll >= config.killRate)
        return plan;
    plan.kill = true;
    if (config.maxKillDelayMicros > 0) {
        const double delay =
            unitDraw(config.seed ^ kChaosDelaySalt, job, dispatch);
        plan.delayMicros = static_cast<std::uint32_t>(
            delay * static_cast<double>(config.maxKillDelayMicros));
    }
    return plan;
}

} // namespace drs::fleet
