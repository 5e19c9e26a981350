#include "mem/dram.hh"

namespace hopp::mem
{

Dram::Dram(std::uint64_t frames) : total_(frames), base_(Ppn{1})
{
    hopp_assert(frames > 0, "DRAM needs at least one frame");
    // PPN 0 is reserved as an invalid sentinel; frames are [base_,
    // base_ + total_). Hand frames out in ascending order.
    freeList_.reserve(frames);
    for (std::uint64_t i = 0; i < frames; ++i)
        freeList_.push_back(base_ + (frames - 1 - i));
    allocated_.assign(frames, false);
}

Ppn
Dram::allocate()
{
    hopp_assert(!freeList_.empty(), "DRAM exhausted; reclaim first");
    std::size_t idx = static_cast<std::size_t>(
        rng_.below64(freeList_.size()));
    std::swap(freeList_[idx], freeList_.back());
    Ppn ppn = freeList_.back();
    freeList_.pop_back();
    allocated_[ppn - base_] = true;
    return ppn;
}

void
Dram::release(Ppn ppn)
{
    // Diagnostic formatting of the frame number. hopp-analyze: allow(raw)
    hopp_assert(ppn >= base_ && ppn < base_ + total_,
                "release of foreign frame %llu",
                static_cast<unsigned long long>(ppn.raw()));
    // Diagnostic formatting of the frame number. hopp-analyze: allow(raw)
    hopp_assert(allocated_[ppn - base_], "double free of frame %llu",
                static_cast<unsigned long long>(ppn.raw()));
    allocated_[ppn - base_] = false;
    freeList_.push_back(ppn);
}

std::uint64_t
Dram::totalTraffic() const
{
    std::uint64_t sum = 0;
    for (auto v : traffic_)
        sum += v;
    return sum;
}

} // namespace hopp::mem
