/**
 * @file
 * Completion timing wheel implementation.
 */

#include "core/completion_wheel.hh"

#include <algorithm>
#include <bit>

namespace dmdc
{

CompletionWheel::CompletionWheel(Cycle horizon)
    : horizon_(horizon),
      mask_(std::bit_ceil(std::max<Cycle>(horizon, 64)) - 1),
      buckets_(mask_ + 1),
      occupied_((mask_ + 1) / 64)
{
}

void
CompletionWheel::insertSorted(Bucket &b, DynInst *inst)
{
    DynInst **link = &b.head;
    while ((*link)->seq < inst->seq)
        link = &(*link)->nextEvent;
    if ((*link)->seq == inst->seq) {
        panic("seq %llu scheduled to complete twice",
              static_cast<unsigned long long>(inst->seq));
    }
    inst->nextEvent = *link;
    *link = inst;
}

void
CompletionWheel::squashFrom(SeqNum from_seq)
{
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
        for (std::uint64_t bits = occupied_[w]; bits; bits &= bits - 1) {
            const unsigned bit = std::countr_zero(bits);
            Bucket &b = buckets_[(w << 6) | bit];
            if (b.tail->seq < from_seq)
                continue;
            if (b.head->seq >= from_seq) {
                b = Bucket{};
                occupied_[w] &= ~(std::uint64_t{1} << bit);
                continue;
            }
            DynInst *keep = b.head;
            while (keep->nextEvent->seq < from_seq)
                keep = keep->nextEvent;
            keep->nextEvent = nullptr;
            b.tail = keep;
        }
    }
}

Cycle
CompletionWheel::nextDue(Cycle now) const
{
    // Scan circularly from bucket now + 1; bucket `now` comes last, so
    // landing on it means nothing lies ahead.
    const std::size_t words = occupied_.size();
    const std::size_t start = (now + 1) & mask_;
    std::size_t w = start >> 6;
    std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t i = 0; i <= words; ++i) {
        if (bits) {
            const std::size_t idx = (w << 6) | std::countr_zero(bits);
            const Cycle ahead = (idx - now) & mask_;
            return ahead ? now + ahead : 0;
        }
        w = (w + 1) & (words - 1);
        bits = occupied_[w];
    }
    return 0;
}

} // namespace dmdc
