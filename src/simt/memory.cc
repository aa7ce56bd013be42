#include "simt/memory.h"

#include "fault/fault.h"

#include <algorithm>
#include <stdexcept>

namespace drs::simt {

SharedMemorySide::SharedMemorySide(const MemoryConfig &config)
    : config_(config),
      l2_(config.l2.sizeBytes, config.l2.lineBytes, config.l2.ways)
{
}

std::uint32_t
SharedMemorySide::accessLine(std::uint64_t address)
{
    const bool hit = l2_.access(address);
    std::uint32_t latency =
        config_.l2.hitLatency + (hit ? 0u : config_.dramLatency);
    if (!hit && fault_)
        latency += fault_->rollDramFault();
    return latency;
}

SmxMemory::SmxMemory(const MemoryConfig &config, SharedMemorySide &shared)
    : config_(config),
      shared_(shared),
      l1Data_(config.l1Data.sizeBytes, config.l1Data.lineBytes,
              config.l1Data.ways),
      l1Texture_(config.l1Texture.sizeBytes, config.l1Texture.lineBytes,
                 config.l1Texture.ways)
{
}

void
SmxMemory::resolveL1(MemSpace space, std::span<const std::uint64_t> addresses,
                     std::uint32_t bytes, PendingWarpAccess &pending)
{
    pending.baseLatency = 0;
    pending.extraLatency = 0;
    pending.l1Latency = 0;
    pending.missLines.clear();
    if (space == MemSpace::None || addresses.empty())
        return;

    Cache &l1 = (space == MemSpace::Texture) ? l1Texture_ : l1Data_;
    const std::uint32_t shift = l1.lineShift();
    const std::uint64_t last_byte = std::max(bytes, 1u) - 1;

    // Coalesce: collect the distinct lines this warp instruction touches,
    // in ascending order. An access of `bytes` bytes may straddle a line
    // boundary. Lanes of a coherent warp mostly share a few lines, so a
    // line already collected is dropped by a branch-free scan of the
    // (short) distinct list, and only new lines are insertion-sorted in.
    lines_.clear();
    for (std::uint64_t a : addresses) {
        const std::uint64_t last = (a + last_byte) >> shift;
        for (std::uint64_t l = a >> shift; l <= last; ++l) {
            bool seen = false;
            for (std::uint64_t known : lines_)
                seen |= known == l;
            if (seen)
                continue;
            std::size_t at = lines_.size();
            lines_.push_back(l);
            for (; at > 0 && lines_[at - 1] > l; --at)
                lines_[at] = lines_[at - 1];
            lines_[at] = l;
        }
    }

    pending.l1Latency = (space == MemSpace::Texture)
                            ? config_.l1Texture.hitLatency
                            : config_.l1Data.hitLatency;
    for (std::uint64_t l : lines_) {
        const std::uint64_t byte_addr = l << shift;
        if (l1.access(byte_addr))
            pending.baseLatency =
                std::max(pending.baseLatency, pending.l1Latency);
        else
            pending.missLines.push_back(byte_addr);
    }
    // Additional lines serialize at the L1 port, adding a small per-line
    // charge (memory divergence).
    pending.extraLatency = static_cast<std::uint32_t>(lines_.size() - 1) *
                           config_.perLineSerialization;
}

std::uint32_t
SmxMemory::commitAccess(const PendingWarpAccess &pending)
{
    if (pending.missLines.empty() && pending.baseLatency == 0 &&
        pending.extraLatency == 0)
        return 0;

    // The warp waits for the slowest line.
    std::uint32_t worst = pending.baseLatency;
    for (std::uint64_t byte_addr : pending.missLines)
        worst = std::max(worst,
                         pending.l1Latency + shared_.accessLine(byte_addr));
    return worst + pending.extraLatency;
}

void
SmxMemory::resetStats()
{
    l1Data_.resetStats();
    l1Texture_.resetStats();
}

void
SmxMemory::flush()
{
    l1Data_.flush();
    l1Texture_.flush();
}

} // namespace drs::simt
