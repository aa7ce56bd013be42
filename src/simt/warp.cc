#include "simt/warp.h"

#include <algorithm>
#include <cassert>
#include <map>
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

    // Partition active lanes by successor.
    std::map<int, std::uint32_t> targets; // ordered for determinism
    for (int lane = 0; lane < lanes_; ++lane) {
        if (!(mask & (1u << lane)))
            continue;
        targets[next_blocks[static_cast<std::size_t>(lane)]] |= 1u << lane;
    }
    assert(!targets.empty());

    if (targets.size() == 1) {
        const int next = targets.begin()->first;
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
        for (auto it = targets.begin(); it != targets.end(); ++it) {
            if (it->first == rpc)
                continue; // these lanes wait at the reconvergence entry
            stack_.push_back(StackEntry{it->first, rpc, it->second});
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
