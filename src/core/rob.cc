/**
 * @file
 * ROB implementation.
 */

#include "core/rob.hh"

#include "common/logging.hh"

namespace dmdc
{

Rob::Rob(unsigned capacity, DynInstPool &pool)
    : insts_(capacity), pool_(pool)
{
    if (capacity == 0)
        fatal("ROB capacity must be non-zero");
}

DynInst *
Rob::allocate(DynInst *inst)
{
    if (full())
        panic("ROB allocate on full ROB");
    if (!insts_.empty() && inst->seq <= insts_.back()->seq)
        panic("ROB allocation out of age order");
    insts_.push_back(inst);
    return inst;
}

void
Rob::retireHead()
{
    if (insts_.empty())
        panic("ROB retire on empty ROB");
    DynInst *inst = insts_.front();
    insts_.pop_front();
    if (retireObserver_)
        retireObserver_->retired(*inst);
    pool_.release(inst);
}

} // namespace dmdc
