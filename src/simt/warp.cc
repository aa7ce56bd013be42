#include "simt/warp.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace drs::simt {

Warp::Warp(int id, int row, int entry_block, int exit_block, int lanes)
    : id_(id), row_(row), exitBlock_(exit_block), lanes_(lanes)
{
    if (lanes < 1 || lanes > 32)
        throw std::invalid_argument(
            "Warp: lanes must be in [1, 32] (lane masks are 32-bit)");
    stack_.push_back(StackEntry{entry_block, exit_block, fullMask(lanes)});
    if (entry_block == exit_block)
        exited_ = true;
}

void
Warp::applySuccessors(const std::vector<int> &next_blocks,
                      const Program &program)
{
    assert(!exited_);
    StackEntry &top = stack_.back();
    const std::uint32_t mask = top.mask;
    const int branch_pc = top.pc;

    // Partition active lanes by successor into a fixed array (at most one
    // target per lane), sorted by target for deterministic pushes.
    struct Target
    {
        int block;
        std::uint32_t mask;
    };
    std::array<Target, 32> targets;
    int count = 0;
    for (std::uint32_t rest = mask & fullMask(lanes_); rest != 0;
         rest &= rest - 1) {
        const int lane = std::countr_zero(rest);
        const int next = next_blocks[static_cast<std::size_t>(lane)];
        int t = 0;
        while (t < count && targets[static_cast<std::size_t>(t)].block != next)
            ++t;
        if (t == count)
            targets[static_cast<std::size_t>(count++)] = Target{next, 0};
        targets[static_cast<std::size_t>(t)].mask |= 1u << lane;
    }
    assert(count > 0);
    std::sort(targets.begin(), targets.begin() + count,
              [](const Target &a, const Target &b) {
                  return a.block < b.block;
              });

    if (count == 1) {
        const int next = targets[0].block;
        if (next == top.rpc) {
            // Reached the reconvergence point: rejoin the entry below.
            if (stack_.size() > 1) {
                stack_.pop_back();
            } else {
                // The bottom entry's rpc must be the exit block — pushed
                // that way in the constructor and never rewritten. If it
                // ever weren't, overwriting pc here would skip the exit
                // re-check below and the warp would keep running at its
                // "reconvergence" block. Fail loudly instead of
                // continuing on a corrupted stack.
                if (top.rpc != exitBlock_)
                    throw std::logic_error(
                        "Warp: bottom stack entry reconverges at a "
                        "non-exit block");
                top.pc = next;
            }
        } else {
            top.pc = next;
        }
    } else {
        // Divergence: the current entry becomes the reconvergence entry at
        // the immediate post-dominator; one entry per target is pushed.
        const int rpc = program.immediatePostDominator(branch_pc);
        top.pc = rpc;
        // Push in ascending target order so execution order is
        // deterministic (the highest-numbered target ends up on top and
        // runs first); any order is architecturally valid.
        for (int t = 0; t < count; ++t) {
            const Target &target = targets[static_cast<std::size_t>(t)];
            if (target.block == rpc)
                continue; // these lanes wait at the reconvergence entry
            stack_.push_back(StackEntry{target.block, rpc, target.mask});
        }
    }

    popConverged();
    if (stack_.size() == 1 && stack_.back().pc == exitBlock_)
        exited_ = true;
}

void
Warp::pushUniformBody(int body_block, std::uint32_t mask, int rpc)
{
    assert(!exited_);
    assert(mask != 0);
    stack_.push_back(StackEntry{body_block, rpc, mask});
}

void
Warp::forceExit()
{
    stack_.clear();
    stack_.push_back(StackEntry{exitBlock_, exitBlock_, 0});
    exited_ = true;
}

void
Warp::popConverged()
{
    while (stack_.size() > 1 && stack_.back().pc == stack_.back().rpc)
        stack_.pop_back();
}

} // namespace drs::simt
